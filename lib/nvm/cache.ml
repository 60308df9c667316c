(* Struct-of-arrays cache metadata.  One simulated memory access costs
   one [touch], so this module is the hottest code in the simulator:
   everything on the access path works on flat [int array]s plus a dirty
   bitset, returns unboxed int codes, and allocates nothing.  The way
   holding line [l] in set [s] lives at flat index [s * ways + w]. *)

open Sched.Int_compare

type t = {
  tags : int array;  (* n_sets * ways; the line number, or -1 when empty *)
  stamps : int array;  (* LRU clocks, same indexing; lower = older *)
  dirty : int array;  (* bitset over flat way indexes, 63 ways per word *)
  ways : int;
  line_shift : int;  (* log2 line_size: addr lsr line_shift = line *)
  set_mask : int;  (* n_sets - 1: line land set_mask = set index *)
  write_back : int -> unit;
  mutable tick : int;
  mutable n_dirty : int;
      (* incremental count of dirty ways; every dirty-bit transition
         below must keep it in sync so [dirty_count] stays O(1) *)
}

(* Unboxed result encoding for [touch]; see the .mli.  The codes are
   ordered so that [code >= miss_clean] means "miss" and
   [code = miss_dirty] means "a dirty victim was written back". *)
let hit = 0
let miss_clean = 1
let miss_dirty = 2

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  let rec go shift = if 1 lsl shift >= n then shift else go (shift + 1) in
  go 0

let create ~sets ~ways ~line_size ~write_back =
  if not (is_power_of_two line_size) then
    Fmt.invalid_arg "Cache.create: line_size %d not a power of two" line_size;
  if not (is_power_of_two sets) then
    Fmt.invalid_arg "Cache.create: set count %d not a power of two" sets;
  if ways <= 0 then Fmt.invalid_arg "Cache.create: ways %d not positive" ways;
  let n = sets * ways in
  {
    tags = Array.make n (-1);
    stamps = Array.make n 0;
    dirty = Array.make ((n + 62) / 63) 0;
    ways;
    line_shift = log2_exact line_size;
    set_mask = sets - 1;
    write_back;
    tick = 0;
    n_dirty = 0;
  }

let line_of t addr = addr lsr t.line_shift

(* Dirty bitset helpers.  63 bits per word keeps every operation on the
   OCaml immediate-int fast path. *)
let[@inline] is_dirty_idx t i = (t.dirty.(i / 63) lsr (i mod 63)) land 1 = 1

let[@inline] set_dirty_idx t i =
  let w = i / 63 in
  Array.unsafe_set t.dirty w (Array.unsafe_get t.dirty w lor (1 lsl (i mod 63)))

let[@inline] clear_dirty_idx t i =
  let w = i / 63 in
  Array.unsafe_set t.dirty w
    (Array.unsafe_get t.dirty w land lnot (1 lsl (i mod 63)))

(* Flat index of the way holding [line], or -1.  Replaces the historical
   [find_way : t -> int -> way option], whose [Some] boxed on every hit.
   The search loop is a top-level function on purpose: a local [let rec]
   with free variables compiles to a minor-heap closure under the
   non-flambda backend, which would put an allocation back on every
   access.  Its parameters carry no type annotation, so without the
   [Int_compare] opened above they would generalise to ['a array] and
   every way probed would call the polymorphic [caml_equal]. *)
let rec find_from tags line i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = line then i
  else find_from tags line (i + 1) stop

let[@inline] find_idx t line =
  let base = (line land t.set_mask) * t.ways in
  find_from t.tags line base (base + t.ways)

let next_stamp t =
  t.tick <- t.tick + 1;
  t.tick

(* First way with the strictly smallest stamp, as the record-based
   implementation chose (Array.iter with [<]).  Top-level for the same
   no-closure reason as [find_from]. *)
let rec lru_from stamps i stop best best_stamp =
  if i >= stop then best
  else
    let s = Array.unsafe_get stamps i in
    if s < best_stamp then lru_from stamps (i + 1) stop i s
    else lru_from stamps (i + 1) stop best best_stamp

let[@inline] lru_idx t base =
  lru_from t.stamps (base + 1) (base + t.ways) base t.stamps.(base)

let[@inline] touch t ~addr ~dirty =
  let line = line_of t addr in
  let i = find_idx t line in
  if i >= 0 then begin
    t.stamps.(i) <- next_stamp t;
    if dirty && not (is_dirty_idx t i) then begin
      set_dirty_idx t i;
      t.n_dirty <- t.n_dirty + 1
    end;
    hit
  end
  else begin
    let base = (line land t.set_mask) * t.ways in
    let v = lru_idx t base in
    let evicted_dirty = t.tags.(v) >= 0 && is_dirty_idx t v in
    if evicted_dirty then begin
      t.write_back (t.tags.(v) lsl t.line_shift);
      t.n_dirty <- t.n_dirty - 1
    end;
    t.tags.(v) <- line;
    if dirty then begin
      set_dirty_idx t v;
      t.n_dirty <- t.n_dirty + 1
    end
    else clear_dirty_idx t v;
    t.stamps.(v) <- next_stamp t;
    if evicted_dirty then miss_dirty else miss_clean
  end

let flush_line t ~addr =
  let line = line_of t addr in
  let i = find_idx t line in
  if i >= 0 && is_dirty_idx t i then begin
    t.write_back (line lsl t.line_shift);
    clear_dirty_idx t i;
    t.n_dirty <- t.n_dirty - 1;
    true
  end
  else false

let dirty_count t = t.n_dirty

let dirty_lines t =
  (* Collected into an exact-size scratch array and sorted with the
     monomorphic [Int.compare]: this runs inside [Pmem.crash] for
     every partial-rescue and torn campaign step, where the historical
     polymorphic [List.sort compare] dominated the crash cost. *)
  let out = Array.make (Int.max 1 t.n_dirty) 0 in
  let k = ref 0 in
  Array.iteri
    (fun i tag ->
      if tag >= 0 && is_dirty_idx t i then begin
        out.(!k) <- tag lsl t.line_shift;
        incr k
      end)
    t.tags;
  let out = if !k = Array.length out then out else Array.sub out 0 !k in
  Array.sort Int.compare out;
  Array.to_list out

let write_back_all t =
  let n = ref 0 in
  Array.iteri
    (fun i tag ->
      if tag >= 0 && is_dirty_idx t i then begin
        t.write_back (tag lsl t.line_shift);
        clear_dirty_idx t i;
        incr n
      end)
    t.tags;
  t.n_dirty <- 0;
  !n

let drop_all t =
  let lost = t.n_dirty in
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  Array.fill t.dirty 0 (Array.length t.dirty) 0;
  t.n_dirty <- 0;
  lost

let cached t ~addr = find_idx t (line_of t addr) >= 0

let is_dirty t ~addr =
  let i = find_idx t (line_of t addr) in
  i >= 0 && is_dirty_idx t i
