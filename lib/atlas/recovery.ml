module Heap = Pheap.Heap

type verdict = Clean | Degraded of string list | Unrecoverable of string

type report = {
  log_entries : int;
  ocses : int;
  committed : int;
  incomplete : int;
  cascaded : int;
  updates_applied : int;
  updates_skipped : int;
  max_seq : int;
  anomalies : string list;
  truncated_entries : int;
  verdict : verdict;
}

type rec_ocs = {
  id : int;
  mutable committed : bool;
  mutable commit_seq : int;  (* sequence of the Commit entry, 0 if none *)
  mutable deps : int list;
  mutable updates : (int * int * int64) list;  (* seq, addr, old — newest first *)
}

let parse_thread ~anomalies ~table entries =
  let anomaly fmt = Fmt.kstr (fun s -> anomalies := s :: !anomalies) fmt in
  let current = ref None in
  let open_ocs id =
    let r = { id; committed = false; commit_seq = 0; deps = []; updates = [] } in
    Hashtbl.replace table id r;
    current := Some r
  in
  let close () = current := None in
  List.iter
    (fun (e : Log_entry.t) ->
      match e.payload with
      | Log_entry.Begin { ocs } ->
          (match !current with
          | Some r ->
              anomaly "begin of ocs %d while ocs %d still open" ocs r.id
          | None -> ());
          open_ocs ocs
      | Log_entry.Update { addr; old } -> begin
          match !current with
          | Some r -> r.updates <- (e.seq, addr, old) :: r.updates
          | None -> anomaly "update entry (seq %d) outside any ocs" e.seq
        end
      | Log_entry.Dep { on_ocs; mutex = _ } -> begin
          match !current with
          | Some r -> r.deps <- on_ocs :: r.deps
          | None -> anomaly "dep entry (seq %d) outside any ocs" e.seq
        end
      | Log_entry.Commit { ocs } -> begin
          match !current with
          | Some r when r.id = ocs ->
              r.committed <- true;
              r.commit_seq <- e.seq;
              close ()
          | Some r ->
              anomaly "commit of ocs %d while ocs %d open" ocs r.id;
              close ()
          | None -> anomaly "commit of ocs %d with no open ocs" ocs
        end)
    entries

let rollback_closure ~watermark table =
  (* Seed with interrupted sections — and, under deferred durability,
     with committed sections the watermark does not cover (their data
     never provably reached the persistence domain).  Then iterate to a
     fixpoint: a committed section whose dependency rolls back must roll
     back too. *)
  let doomed = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id r ->
      if
        (not r.committed)
        || (watermark >= 0 && r.commit_seq > watermark)
      then Hashtbl.replace doomed id ())
    table;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun id r ->
        if not (Hashtbl.mem doomed id)
           && List.exists (Hashtbl.mem doomed) r.deps
        then begin
          Hashtbl.replace doomed id ();
          changed := true
        end)
      table
  done;
  doomed

let unrecoverable msg =
  {
    log_entries = 0;
    ocses = 0;
    committed = 0;
    incomplete = 0;
    cascaded = 0;
    updates_applied = 0;
    updates_skipped = 0;
    max_seq = 0;
    anomalies = [];
    truncated_entries = 0;
    verdict = Unrecoverable msg;
  }

(* The degradation message for a checksum-truncated thread log.  [None]
   when nothing was orphaned: a zero-orphan scan is not a degradation
   and must not emit a reason. *)
let orphan_warning ~tid ~orphans =
  if orphans <= 0 then None
  else
    Some
      (Fmt.str "thread %d log truncated (%d orphaned %s)" tid orphans
         (if orphans = 1 then "entry" else "entries"))

type scan_mode = Costed_scan | Streamed_scan

let run_attached ?(scan = Costed_scan) ~heap ~pmem ~ulog () =
  (* Recovery phases bracket the log scan and the rollback so the trace
     (and the per-phase cycle registry) can attribute recovery time. *)
  let tracer = Nvm.Pmem.tracer pmem in
  let anomalies = ref [] in
  let degradations = ref [] in
  let truncated = ref 0 in
  let table : (int, rec_ocs) Hashtbl.t = Hashtbl.create 256 in
  let log_entries = ref 0 in
  let max_seq = ref 0 in
  let consume tid = function
    | Error msg -> degradations := msg :: !degradations
    | Ok (entries, orphans) ->
        (match orphan_warning ~tid ~orphans with
        | Some warning ->
            truncated := !truncated + orphans;
            degradations := warning :: !degradations
        | None -> ());
        log_entries := !log_entries + List.length entries;
        List.iter
          (fun (e : Log_entry.t) -> if e.seq > !max_seq then max_seq := e.seq)
          entries;
        parse_thread ~anomalies ~table entries
  in
  Obs.Tracer.in_phase tracer ~phase:Obs.Event.phase_log_scan (fun () ->
      (* One ring at a time, in tid order.  The streamed reader peeks
         and counts the words it touches; their bill is charged at the
         end: the log is read as a sequential stream, so the cost is
         one cold miss per cache line of log data rather than per
         word. *)
      let words = ref 0 in
      let read =
        match scan with
        | Costed_scan -> Nvm.Pmem.load pmem
        | Streamed_scan ->
            fun a ->
              incr words;
              Nvm.Pmem.peek pmem a
      in
      for tid = 0 to Undo_log.num_threads ulog - 1 do
        consume tid (Undo_log.scan_thread ulog ~tid ~read)
      done;
      match scan with
      | Costed_scan -> ()
      | Streamed_scan ->
          let cfg = Nvm.Pmem.config pmem in
          let lines =
            ((!words * 8) + cfg.Nvm.Config.line_size - 1)
            / cfg.Nvm.Config.line_size
          in
          Nvm.Pmem.charge pmem (lines * cfg.Nvm.Config.load_miss));
  let applied = ref 0 and skipped = ref 0 in
  let committed, incomplete, cascaded =
    Obs.Tracer.in_phase tracer ~phase:Obs.Event.phase_rollback (fun () ->
        let watermark = Undo_log.watermark ulog in
        let doomed = rollback_closure ~watermark table in
        let count p =
          Hashtbl.fold (fun id r n -> if p id r then n + 1 else n) table 0
        in
        let committed = count (fun _ r -> r.committed) in
        let incomplete = count (fun _ r -> not r.committed) in
        let cascaded =
          count (fun id r -> r.committed && Hashtbl.mem doomed id)
        in
        (* Collect every update of every doomed section and undo them
           newest first, so overlapping writes unwind in the right
           order. *)
        let updates =
          Hashtbl.fold
            (fun id r acc ->
              if Hashtbl.mem doomed id then r.updates @ acc else acc)
            table []
          |> List.sort (fun (s1, _, _) (s2, _, _) -> compare s2 s1)
        in
        let lo = Heap.start_addr heap and hi = Heap.end_addr heap in
        List.iter
          (fun (_, addr, old) ->
            if addr land 7 = 0 && addr >= lo && addr < hi then begin
              Nvm.Pmem.store pmem addr old;
              incr applied
            end
            else begin
              incr skipped;
              anomalies :=
                Printf.sprintf "update to invalid address %d" addr :: !anomalies
            end)
          updates;
        Nvm.Pmem.persist_all pmem;
        (committed, incomplete, cascaded))
  in
  let anomalies = List.rev !anomalies in
  let reasons =
    List.rev !degradations
    @ (if !skipped > 0 then
         [ Fmt.str "%d rollback updates skipped (invalid targets)" !skipped ]
       else [])
    @
    match anomalies with
    | [] -> []
    | l -> [ Fmt.str "%d structural log anomalies" (List.length l) ]
  in
  {
    log_entries = !log_entries;
    ocses = Hashtbl.length table;
    committed;
    incomplete;
    cascaded;
    updates_applied = !applied;
    updates_skipped = !skipped;
    max_seq = !max_seq;
    anomalies;
    truncated_entries = !truncated;
    verdict = (match reasons with [] -> Clean | l -> Degraded l);
  }

let run ?scan ~heap ~log_base () =
  let pmem = Heap.pmem heap in
  match Undo_log.attach_result pmem ~base:log_base with
  | Error msg -> unrecoverable (Fmt.str "undo log: %s" msg)
  | Ok ulog -> run_attached ?scan ~heap ~pmem ~ulog ()

let pp_verdict ppf = function
  | Clean -> Fmt.string ppf "clean"
  | Degraded reasons ->
      Fmt.pf ppf "degraded (%a)" Fmt.(list ~sep:semi string) reasons
  | Unrecoverable msg -> Fmt.pf ppf "UNRECOVERABLE: %s" msg

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>log entries %d (%d orphaned); ocses %d (committed %d, incomplete \
     %d, cascaded %d)@ rolled back %d updates (%d skipped); max seq %d@ \
     verdict %a%a@]"
    r.log_entries r.truncated_entries r.ocses r.committed r.incomplete
    r.cascaded r.updates_applied r.updates_skipped r.max_seq pp_verdict
    r.verdict
    (fun ppf -> function
      | [] -> ()
      | l -> Fmt.pf ppf "@ anomalies: %a" Fmt.(list ~sep:comma string) l)
    r.anomalies
