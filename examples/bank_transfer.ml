(* Bank transfers: why mutex-based software needs Atlas.

   A transfer debits one account and credits another inside one critical
   section — two stores that must be failure-atomic.  We crash the same
   workload twice, at the same step, under the same TSP-covered failure:

   - unfortified (No_log): the crash can land between the debit and the
     credit, and recovery finds money destroyed;
   - Atlas in TSP mode (Log_only): the interrupted section is rolled
     back during recovery and the books balance — with no synchronous
     flushing during the run.

   Run with: dune exec examples/bank_transfer.exe *)

module Runner = Workload.Runner

let accounts = 256
let initial_balance = 1000

let run_one mode crash_at seed =
  let base = Runner.calibrated_config Nvm.Config.desktop in
  Runner.run
    {
      base with
      Runner.variant = Runner.Mutex_map mode;
      workload = Runner.Transfers { accounts; initial_balance };
      iterations = 2000;
      threads = 8;
      seed;
      crash_at_step = Some crash_at;
      hardware = Tsp_core.Hardware.nvram_machine;
      failure = Tsp_core.Failure_class.Process_crash;
    }

let total entries =
  List.fold_left (fun acc (_, v) -> Int64.add acc v) 0L entries

let find_torn_seed () =
  (* Scan seeds and crash points until the unfortified run tears a
     transfer; determinism makes the tear reproducible. *)
  let rec search seed =
    if seed > 400 then None
    else
      let crash_at = 20_000 + (97 * seed) in
      let r = run_one Atlas.Mode.No_log crash_at seed in
      if not r.Runner.invariants.Workload.Invariant.ok then
        Some (seed, crash_at, r)
      else search (seed + 1)
  in
  search 1

let () =
  let expected = Int64.of_int (accounts * initial_balance) in
  Fmt.pr "Initial funds across %d accounts: %Ld@.@." accounts expected;
  match find_torn_seed () with
  | None ->
      Fmt.pr
        "No torn transfer found in the scanned seeds — increase the range.@."
  | Some (seed, crash_at, unfortified) ->
      Fmt.pr "--- unfortified mutex code, crash at step %d (seed %d) ---@."
        crash_at seed;
      Fmt.pr "recovered total: %Ld (expected %Ld)@." (total unfortified.Runner.entries)
        expected;
      Fmt.pr "%a@.@." Workload.Invariant.pp unfortified.Runner.invariants;
      let fortified = run_one Atlas.Mode.Log_only crash_at seed in
      Fmt.pr "--- same crash, Atlas log-only (TSP mode) ---@.";
      (match fortified.Runner.crash with
      | Some { atlas_recovery = Some rep; _ } ->
          Fmt.pr "recovery: %a@." Atlas.Recovery.pp_report rep
      | _ -> ());
      Fmt.pr "recovered total: %Ld (expected %Ld)@." (total fortified.Runner.entries)
        expected;
      Fmt.pr "%a@.@." Workload.Invariant.pp fortified.Runner.invariants;
      Fmt.pr
        "Atlas rolled the interrupted section back; the unfortified run \
         lost the difference. Same crash, same hardware — the logging made \
         the difference, and TSP made the logging cheap.@."
