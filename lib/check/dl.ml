type stats = {
  ops : int;
  completed : int;
  pending : int;
  keys : int;
  capped : int;
}

type violation = { key : int; detail : string }
type verdict = Explained of stats | Violation of stats * violation list

let subset_limit = 20

(* ------------------------------------------------------------------ *)
(* Subset-sum over optional increments.                                *)
(* ------------------------------------------------------------------ *)

(* Can some subset of [bys] (nonempty if [nonempty]) sum to [target]?
   All-equal positive increments — the workloads' [by:1] — reduce to a
   divisibility + range check; otherwise we enumerate subsets, and past
   [subset_limit] elements accept conservatively (the caller counts the
   concession in [stats.capped]). *)
let achievable ?(nonempty = false) ~capped bys target =
  match bys with
  | [] -> (not nonempty) && Int64.equal target 0L
  | b0 :: _
    when Int64.compare b0 0L > 0 && List.for_all (Int64.equal b0) bys ->
      let n = Int64.of_int (List.length bys) in
      let q = Int64.div target b0 and r = Int64.rem target b0 in
      Int64.equal r 0L
      && Int64.compare q 0L >= 0
      && Int64.compare q n <= 0
      && ((not nonempty) || Int64.compare q 0L > 0)
  | _ ->
      let arr = Array.of_list bys in
      let n = Array.length arr in
      if n > subset_limit then begin
        incr capped;
        true
      end
      else begin
        let found = ref false in
        let first = if nonempty then 1 else 0 in
        let mask = ref first in
        while (not !found) && !mask < 1 lsl n do
          let s = ref 0L in
          for i = 0 to n - 1 do
            if !mask land (1 lsl i) <> 0 then s := Int64.add !s arr.(i)
          done;
          if Int64.equal !s target then found := true;
          incr mask
        done;
        !found
      end

(* ------------------------------------------------------------------ *)
(* Per-key explanation.                                                *)
(* ------------------------------------------------------------------ *)

type entry = { op : History.op; arg : int64; t0 : int; t1 : int }

let is_completed (e : entry) = e.t1 >= 0
let is_absolute (e : entry) = e.op = History.Set || e.op = History.Remove

(* a ≺ b in simulated real time: a's response happened before b's
   invocation.  A pending a (t1 = -1) precedes nothing. *)
let precedes a b = a.t1 >= 0 && a.t1 < b.t0

type base =
  | Initial  (** the pre-run value; admissible iff no completed absolute op *)
  | Last of entry  (** this Set/Remove is linearized last among absolutes *)

(* Does linearizing [base] last among this key's absolute operations,
   then choosing positions for overlapping increments and inclusion for
   pending ones, produce exactly [recovered_v]? *)
let base_explains ~capped ~initial_v ~recovered_v ~incrs base =
  let base_state =
    match base with
    | Initial -> initial_v
    | Last a -> ( match a.op with History.Set -> Some a.arg | _ -> None)
  in
  (* Classify each increment relative to the base:
     - before   (i ≺ base): linearized before, overwritten — excluded;
     - forced   (base ≺ i): linearized after — always contributes;
     - optional (overlapping, or pending): contributes at will. *)
  let before i =
    match base with Initial -> false | Last a -> precedes i a
  in
  let forced i =
    is_completed i
    && match base with Initial -> true | Last a -> precedes a i
  in
  let forced_n = ref 0 in
  let forced_sum = ref 0L in
  let optional = ref [] in
  List.iter
    (fun i ->
      if before i then ()
      else if forced i then begin
        incr forced_n;
        forced_sum := Int64.add !forced_sum i.arg
      end
      else optional := i.arg :: !optional)
    incrs;
  let optional = List.rev !optional in
  match (base_state, recovered_v) with
  | Some v0, Some r ->
      achievable ~capped optional Int64.(sub (sub r v0) !forced_sum)
  | Some _, None ->
      (* A present base cannot vanish; a pending Remove that would erase
         it is its own base candidate. *)
      false
  | None, None ->
      (* Absent survives only if no completed increment must follow. *)
      !forced_n = 0
  | None, Some r ->
      (* incr on an absent key inserts its increment, so an absent base
         plus a nonempty set of applied increments yields their sum. *)
      if !forced_n > 0 then
        achievable ~capped optional (Int64.sub r !forced_sum)
      else achievable ~nonempty:true ~capped optional r

let explain_key ~capped ~initial_v ~recovered_v entries =
  let absolute = List.filter is_absolute entries in
  let incrs = List.filter (fun e -> e.op = History.Incr) entries in
  let completed_abs = List.filter is_completed absolute in
  (* An absolute op can be linearized last iff no completed absolute op
     is forced after it; the initial state can be "last" iff there are
     no completed absolute ops at all. *)
  let admissible a =
    not (List.exists (fun b -> b != a && precedes a b) completed_abs)
  in
  let bases =
    (if completed_abs = [] then [ Initial ] else [])
    @ List.filter_map (fun a -> if admissible a then Some (Last a) else None)
        absolute
  in
  List.exists (base_explains ~capped ~initial_v ~recovered_v ~incrs) bases

(* ------------------------------------------------------------------ *)
(* Whole-state check.                                                  *)
(* ------------------------------------------------------------------ *)

let pp_value ppf = function
  | None -> Fmt.string ppf "absent"
  | Some v -> Fmt.pf ppf "%Ld" v

let diagnose ~initial_v ~recovered_v entries =
  let count p = List.length (List.filter p entries) in
  let completed_w =
    count (fun e -> is_completed e && e.op <> History.Get)
  in
  let pending_w =
    count (fun e -> (not (is_completed e)) && e.op <> History.Get)
  in
  Fmt.str
    "recovered %a not explained by any linearization (initial %a, %d \
     completed / %d pending writes)"
    pp_value recovered_v pp_value initial_v completed_w pending_w

(* Open-addressed key -> dense id map: linear probing over a
   power-of-two slot array kept at most half full.  Ids are handed out
   in first-seen order and [keys.(id)] is the key, so [keys] is sized
   for every id the caller may add. *)
type index = { mutable slots : int array; keys : int array; mutable n : int }

let slot_of slots k = ((k * 0x2545F4914F6CDD1D) lsr 31) land (Array.length slots - 1)

let index_create ~expected ~ids =
  let rec pow2 c = if c >= 2 * expected then c else pow2 (2 * c) in
  { slots = Array.make (pow2 16) (-1); keys = Array.make ids 0; n = 0 }

(* The probe walks are top-level, so a lookup allocates no closure. *)
let rec free_slot slots h =
  if slots.(h) < 0 then h else free_slot slots ((h + 1) land (Array.length slots - 1))

let grow ix =
  let slots = Array.make (2 * Array.length ix.slots) (-1) in
  for id = 0 to ix.n - 1 do
    slots.(free_slot slots (slot_of slots ix.keys.(id))) <- id
  done;
  ix.slots <- slots

let rec probe ix k h =
  let id = ix.slots.(h) in
  if id < 0 then begin
    let id = ix.n in
    ix.slots.(h) <- id;
    ix.keys.(id) <- k;
    ix.n <- id + 1;
    if 2 * ix.n > Array.length ix.slots then grow ix;
    id
  end
  else if ix.keys.(id) = k then id
  else probe ix k ((h + 1) land (Array.length ix.slots - 1))

(* The id of [k], added if new. *)
let index_id ix k = probe ix k (slot_of ix.slots k)

(* The work is sized by the writes, not the key space: one pass indexes
   every key, and only a key some Set/Incr/Remove touched goes through
   [explain_key].  An untouched key is explained exactly when its
   recovered value is its initial one (both absent, or both present and
   equal), which is what [explain_key] answers for no entries; [same]
   compares the two without building the initial value.  Only the
   violations are sorted. *)
let check_keys ~keys ~value ~same ~records ~recovered =
  let recv = Array.of_list recovered in
  let n_ini = Array.length keys in
  let n_writes =
    List.fold_left
      (fun n (r : History.record) ->
        match r.op with History.Get -> n | _ -> n + 1)
      0 records
  in
  (* Sized for recovered keys that mostly repeat the initial ones; a run
     that adds more grows the slots.  Sizing for all three lists at
     once doubles the slot array and made a victim-sized check 1.3-2x
     slower (E35). *)
  let bound = n_ini + Array.length recv + n_writes in
  let ix =
    index_create ~expected:(Int.max n_ini (Array.length recv) + n_writes)
      ~ids:bound
  in
  (* The initial keys take ids [0, n_ini): id [i] is [keys.(i)]. *)
  Array.iteri
    (fun i k ->
      if index_id ix k < i then
        Fmt.invalid_arg "Dl.check: duplicate key %d in initial" k)
    keys;
  (* [rec_at.(id)]: the key's position in [recv], -1 when absent, or -2
     when the key is recovered more than once.  A map holds each key
     once, so a second copy is a violation of its own, reported here
     once; the pass below skips the key. *)
  let rec_at = Array.make bound (-1) in
  let violations = ref [] in
  Array.iteri
    (fun j (k, v) ->
      let id = index_id ix k in
      let first = rec_at.(id) in
      if first = -1 then rec_at.(id) <- j
      else if first >= 0 then begin
        violations :=
          {
            key = k;
            detail =
              Fmt.str
                "recovered more than once (%Ld, then %Ld); a map holds each \
                 key once"
                (snd recv.(first)) v;
          }
          :: !violations;
        rec_at.(id) <- -2
      end)
    recv;
  let writes = Array.make bound [] in
  let completed = ref 0 and pending = ref 0 in
  List.iter
    (fun (r : History.record) ->
      if r.t1 >= 0 then incr completed else incr pending;
      match r.op with
      | History.Get -> ()
      | op ->
          let id = index_id ix r.key in
          writes.(id) <- { op; arg = r.arg; t0 = r.t0; t1 = r.t1 } :: writes.(id))
    records;
  let capped = ref 0 in
  let flag id ~initial_v ~recovered_v entries =
    violations :=
      { key = ix.keys.(id); detail = diagnose ~initial_v ~recovered_v entries }
      :: !violations
  in
  let initial_of id = if id < n_ini then Some (value id) else None in
  let recovered_of j = if j >= 0 then Some (snd recv.(j)) else None in
  for id = 0 to ix.n - 1 do
    let j = rec_at.(id) in
    match writes.(id) with
    | _ when j = -2 -> ()
    | [] ->
        let unchanged =
          if id < n_ini then j >= 0 && same id (snd recv.(j)) else j < 0
        in
        if not unchanged then
          flag id ~initial_v:(initial_of id) ~recovered_v:(recovered_of j) []
    | rev_entries ->
        let entries = List.rev rev_entries in
        let initial_v = initial_of id and recovered_v = recovered_of j in
        if not (explain_key ~capped ~initial_v ~recovered_v entries) then
          flag id ~initial_v ~recovered_v entries
  done;
  let stats =
    {
      ops = List.length records;
      completed = !completed;
      pending = !pending;
      keys = ix.n;
      capped = !capped;
    }
  in
  match List.sort (fun a b -> Int.compare a.key b.key) !violations with
  | [] -> Explained stats
  | vs -> Violation (stats, vs)

let check_records ~initial ~records ~recovered =
  let ini = Array.of_list initial in
  check_keys ~keys:(Array.map fst ini)
    ~value:(fun i -> snd ini.(i))
    ~same:(fun i v -> Int64.equal (snd ini.(i)) v)
    ~records ~recovered

let check ~initial ~history ~recovered =
  check_records ~initial ~records:(History.records history) ~recovered

let is_explained = function Explained _ -> true | Violation _ -> false

let pp_stats ppf s =
  Fmt.pf ppf "%d ops (%d completed, %d pending), %d keys" s.ops s.completed
    s.pending s.keys;
  if s.capped > 0 then Fmt.pf ppf ", %d subset-sum capped" s.capped

let pp_verdict ppf = function
  | Explained s -> Fmt.pf ppf "explained: %a" pp_stats s
  | Violation (s, vs) ->
      Fmt.pf ppf "VIOLATION (%d keys): %a" (List.length vs) pp_stats s;
      let shown = List.filteri (fun i _ -> i < 20) vs in
      List.iter
        (fun v -> Fmt.pf ppf "@,  key %d: %s" v.key v.detail)
        shown;
      if List.length vs > 20 then
        Fmt.pf ppf "@,  ... (%d more)" (List.length vs - 20)
