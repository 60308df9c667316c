(* Normalized failure signatures: a stable identity for "the same bug"
   across campaigns, seeds and crash points.

   The hash covers failure class x phase (fault model / campaign leg) x
   normalized invariant diagnosis x key-set shape — and deliberately
   nothing that varies per run: no seeds, no crash steps, no cycle
   counts, no addresses.  Diagnosis strings are normalized by collapsing
   every digit run to '#', so "counter[k=17] expected 3 found 2" and
   "counter[k=401] expected 9 found 8" dedupe to one signature. *)

type t = {
  klass : string;
  phase : string;
  invariant : string;
  shape : string;
  hash : string;
}

let is_digit c = c >= '0' && c <= '9'

let normalize s =
  let buf = Buffer.create (String.length s) in
  let in_run = ref false in
  String.iter
    (fun c ->
      if is_digit c then begin
        if not !in_run then Buffer.add_char buf '#';
        in_run := true
      end
      else begin
        in_run := false;
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

(* Key-set cardinality bucketed coarsely: the *shape* of a failure (one
   key vs a spread) is identity-bearing, its exact count is not. *)
let shape_of_count n =
  if n <= 0 then "none"
  else if n = 1 then "single"
  else if n <= 4 then "few"
  else "many"

(* FNV-1a folded into OCaml's 63-bit int range (the same fold used by
   Recovery_scaling.image_hash). *)
let fnv_basis = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

let fnv h s =
  let h = ref h in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * fnv_prime land max_int)
    s;
  (* Field separator, so ("ab","c") and ("a","bc") differ. *)
  h := (!h lxor 0x1f) * fnv_prime land max_int;
  !h

let make ~klass ~phase ~invariant ~shape =
  let klass = normalize klass
  and phase = normalize phase
  and invariant = normalize invariant
  and shape = normalize shape in
  let h = fnv (fnv (fnv (fnv fnv_basis klass) phase) invariant) shape in
  { klass; phase; invariant; shape; hash = Printf.sprintf "%016x" h }

let equal a b = String.equal a.hash b.hash

let tally sigs =
  List.fold_left
    (fun acc sg ->
      if List.exists (fun (g, _) -> equal g sg) acc then
        List.map (fun (g, n) -> if equal g sg then (g, n + 1) else (g, n)) acc
      else acc @ [ (sg, 1) ])
    [] sigs

let pp ppf s =
  Fmt.pf ppf "%s [%s/%s/%s] %s" s.hash s.klass s.phase s.shape s.invariant

let to_json j s =
  Json.obj_open j;
  Json.key j "hash";
  Json.str j s.hash;
  Json.key j "class";
  Json.str j s.klass;
  Json.key j "phase";
  Json.str j s.phase;
  Json.key j "invariant";
  Json.str j s.invariant;
  Json.key j "shape";
  Json.str j s.shape;
  Json.obj_close j

let tally_to_json j tally =
  Json.arr_open j;
  List.iter
    (fun (sg, n) ->
      Json.obj_open j;
      Json.key j "signature";
      to_json j sg;
      Json.key j "count";
      Json.int j n;
      Json.obj_close j)
    tally;
  Json.arr_close j
