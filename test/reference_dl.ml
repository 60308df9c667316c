(* The table-and-sort durable-linearizability check, retained verbatim
   as an executable reference.  The production [Check.Dl.check_records]
   now indexes every key once, explains only the keys a write touched
   and sorts only its violations; this module keeps the original
   version, which builds a table per input, sorts the whole key universe
   and explains every key, so a property test can run both on the same
   random inputs and demand the same verdict, stats and violations.
   Only [History] is qualified ([Check.History]); [check], [is_explained]
   and the printers are left out.  Do not "improve" this file: its value
   is that it is the old code. *)

module History = Check.History
module Int_table = Nvm.Int_table

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

(* Every table below is int-keyed and sized for the key universe up
   front; only [sorted_keys] decides an output order. *)
let check_records ~initial ~records ~recovered =
  let assoc name l =
    let h = Int_table.create (List.length l) in
    List.iter
      (fun (k, v) ->
        if Int_table.mem h k then
          Fmt.invalid_arg "Dl.check: duplicate key %d in %s" k name;
        Int_table.replace h k v)
      l;
    h
  in
  let initial_h = assoc "initial" initial in
  let recovered_h = assoc "recovered" recovered in
  let n_keys =
    Int.max 64 (Int_table.length initial_h + Int_table.length recovered_h)
  in
  let by_key : entry list ref Int_table.t = Int_table.create n_keys in
  let completed = ref 0 and pending = ref 0 in
  List.iter
    (fun (r : History.record) ->
      if r.t1 >= 0 then incr completed else incr pending;
      if r.op <> History.Get then begin
        let cell =
          match Int_table.find_opt by_key r.key with
          | Some c -> c
          | None ->
              let c = ref [] in
              Int_table.add by_key r.key c;
              c
        in
        cell := { op = r.op; arg = r.arg; t0 = r.t0; t1 = r.t1 } :: !cell
      end)
    records;
  let keys = Int_table.create n_keys in
  let add_key k = if not (Int_table.mem keys k) then Int_table.add keys k () in
  Int_table.iter (fun k _ -> add_key k) initial_h;
  Int_table.iter (fun k _ -> add_key k) recovered_h;
  Int_table.iter (fun k _ -> add_key k) by_key;
  let sorted_keys =
    Int_table.fold (fun k () acc -> k :: acc) keys []
    |> List.sort Int.compare
  in
  let capped = ref 0 in
  let violations =
    List.filter_map
      (fun k ->
        let initial_v = Int_table.find_opt initial_h k in
        let recovered_v = Int_table.find_opt recovered_h k in
        let entries =
          match Int_table.find_opt by_key k with
          | Some c -> List.rev !c
          | None -> []
        in
        if explain_key ~capped ~initial_v ~recovered_v entries then None
        else
          Some { key = k; detail = diagnose ~initial_v ~recovered_v entries })
      sorted_keys
  in
  let stats =
    {
      ops = List.length records;
      completed = !completed;
      pending = !pending;
      keys = List.length sorted_keys;
      capped = !capped;
    }
  in
  if violations = [] then Explained stats else Violation (stats, violations)

