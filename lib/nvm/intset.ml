(* Open-addressed set of non-negative ints, built for the two per-store
   bookkeeping questions the Atlas runtime asks on its hot path ("was
   this word already logged in the current OCS?", "which lines has the
   OCS dirtied?").  Design points, all driven by that use:

   - power-of-two capacity, multiplicative hashing, linear probing: one
     multiply, one shift, and on average barely more than one probe at
     the <= 1/2 load factor maintained here.  Word and line addresses
     are multiples of 8 resp. 64, so the hash must mix the high bits
     down — masking raw addresses would collide catastrophically;
   - membership and insertion allocate nothing (amortised: a grow
     doubles three flat int arrays);
   - [clear] is O(live), not O(capacity): occupied slot indexes are
     recorded at insertion in [pos], so a commit that logged k words
     resets in k stores no matter how large the table has grown;
   - insertion order is retained in [elems], so [iter] is deterministic
     (commit-time flush order must not depend on hash internals). *)

open Sched.Int_compare

type t = {
  mutable slots : int array;  (* -1 = empty; values are >= 0 *)
  mutable elems : int array;  (* members, insertion order; first [live] *)
  mutable pos : int array;  (* slot index of elems.(k), for O(live) clear *)
  mutable mask : int;  (* capacity - 1 *)
  mutable shift : int;  (* 63 - log2 capacity: hash product -> slot *)
  mutable live : int;
}

let mult = 0x2545F4914F6CDD1D

let[@inline] slot_of t x = (x * mult) lsr t.shift

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  let rec go shift = if 1 lsl shift >= n then shift else go (shift + 1) in
  go 0

let create_cap cap =
  {
    slots = Array.make cap (-1);
    elems = Array.make cap 0;
    pos = Array.make cap 0;
    mask = cap - 1;
    shift = 63 - log2_exact cap;
    live = 0;
  }

let create ?(capacity = 64) () =
  let cap = Int.max 8 capacity in
  let cap = if is_power_of_two cap then cap else 1 lsl log2_exact cap in
  create_cap cap

let cardinal t = t.live

(* The probe walks are top-level functions, as [Cache.find_from] is: a
   local [let rec] that captures [t] or [x] compiles to a minor-heap
   closure under the non-flambda backend, built on every call. *)
let rec mem_from slots mask x i =
  let v = Array.unsafe_get slots i in
  if v = x then true
  else if v < 0 then false
  else mem_from slots mask x ((i + 1) land mask)

let mem t x = mem_from t.slots t.mask x (slot_of t x)

(* Insert [x] into [slots] only (no [elems]/[pos] upkeep), for rebuild. *)
let rec reinsert_from t x i =
  if t.slots.(i) < 0 then begin
    t.slots.(i) <- x;
    i
  end
  else reinsert_from t x ((i + 1) land t.mask)

let reinsert t x = reinsert_from t x (slot_of t x)

let grow t =
  let cap = (t.mask + 1) * 2 in
  let elems = t.elems and live = t.live in
  t.slots <- Array.make cap (-1);
  t.mask <- cap - 1;
  t.shift <- t.shift - 1;
  let elems' = Array.make cap 0 and pos' = Array.make cap 0 in
  Array.blit elems 0 elems' 0 live;
  t.elems <- elems';
  t.pos <- pos';
  for k = 0 to live - 1 do
    t.pos.(k) <- reinsert t t.elems.(k)
  done

(* [add t x] inserts [x] if absent; returns [true] iff it was absent.
   The single probe walk answers the membership question and finds the
   insertion slot at once, so the runtime's "first store to this word in
   the OCS?" test is one walk, not two. *)
let rec add_from t x i =
  let v = Array.unsafe_get t.slots i in
  if v = x then false
  else if v < 0 then begin
    t.slots.(i) <- x;
    t.elems.(t.live) <- x;
    t.pos.(t.live) <- i;
    t.live <- t.live + 1;
    if t.live * 2 > t.mask + 1 then grow t;
    true
  end
  else add_from t x ((i + 1) land t.mask)

let add t x = add_from t x (slot_of t x)

let iter f t =
  for k = 0 to t.live - 1 do
    f t.elems.(k)
  done

let clear t =
  for k = 0 to t.live - 1 do
    t.slots.(t.pos.(k)) <- -1
  done;
  t.live <- 0
