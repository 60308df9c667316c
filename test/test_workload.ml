(* End-to-end tests: the key space, the invariants of Section 5.1, the
   runner, fault-injection campaigns, the Table 1 driver and the sweeps. *)

open Helpers
module Runner = Workload.Runner
module Invariant = Workload.Invariant
module Key_space = Workload.Key_space
module FI = Workload.Fault_injector
module Table1 = Workload.Table1
module Sweeps = Workload.Sweeps
module Report = Workload.Report
module Mode = Atlas.Mode
module HW = Tsp_core.Hardware
module FC = Tsp_core.Failure_class

(* Small, fast configurations: the simulation is deterministic, so small
   runs exercise the same code paths as big ones. *)
let small_config =
  {
    Runner.default_config with
    Runner.iterations = 120;
    workload = Runner.Counters { h_keys = 512; preload = true };
    n_buckets = 256;
    log_mib = 2;
  }

(* --- Key space --- *)

let test_key_space () =
  Alcotest.(check int) "c1 of 3" 6 (Key_space.c1 ~tid:3);
  Alcotest.(check int) "c2 of 3" 7 (Key_space.c2 ~tid:3);
  Alcotest.(check int) "l size" 16 (Key_space.l_size ~threads:8);
  Alcotest.(check bool) "h above l" true
    (Key_space.h_key 0 > Key_space.c2 ~tid:100);
  Alcotest.(check bool) "h recognised" true (Key_space.is_h (Key_space.h_key 5));
  Alcotest.(check bool) "counter recognised" true
    (Key_space.is_counter ~threads:8 15);
  Alcotest.(check bool) "h not counter" false
    (Key_space.is_counter ~threads:8 (Key_space.h_key 0))

(* --- Invariants --- *)

let entries_of_counters ~threads ~c1 ~c2 ~h =
  List.concat
    [
      List.init threads (fun t -> (Key_space.c1 ~tid:t, List.nth c1 t));
      List.init threads (fun t -> (Key_space.c2 ~tid:t, List.nth c2 t));
      List.mapi (fun i v -> (Key_space.h_key i, v)) h;
    ]

let test_invariant_counters_pass () =
  (* Thread 0 finished iteration 5; thread 1 is mid-iteration 4. *)
  let entries =
    entries_of_counters ~threads:2 ~c1:[ 5L; 4L ] ~c2:[ 5L; 3L ]
      ~h:[ 4L; 4L; 1L ]
  in
  let r = Invariant.counters ~initial:[] ~entries ~threads:2 in
  Alcotest.(check bool) "ok" true r.Invariant.ok

let test_invariant_counters_eq1_fail () =
  (* diff = 5 > T = 2. *)
  let entries =
    entries_of_counters ~threads:2 ~c1:[ 5L; 4L ] ~c2:[ 2L; 2L ] ~h:[ 5L ]
  in
  let r = Invariant.counters ~initial:[] ~entries ~threads:2 in
  Alcotest.(check bool) "fails" false r.Invariant.ok

let test_invariant_counters_eq2_fail () =
  let entries =
    entries_of_counters ~threads:2 ~c1:[ 5L; 5L ] ~c2:[ 5L; 5L ] ~h:[ 20L ]
  in
  let r = Invariant.counters ~initial:[] ~entries ~threads:2 in
  Alcotest.(check bool) "sum H above c1" false r.Invariant.ok

let test_invariant_counters_per_thread_fail () =
  (* Sums satisfy both equations but thread 1 regressed: c1 < c2. *)
  let entries =
    entries_of_counters ~threads:2 ~c1:[ 6L; 3L ] ~c2:[ 5L; 4L ] ~h:[ 9L ]
  in
  let r = Invariant.counters ~initial:[] ~entries ~threads:2 in
  Alcotest.(check bool) "per-thread check catches it" false r.Invariant.ok

let test_invariant_transfers () =
  let ok =
    Invariant.transfers
      ~entries:[ (1, 400L); (2, 600L) ]
      ~expected_total:1000L
  in
  Alcotest.(check bool) "conserved" true ok.Invariant.ok;
  let lost =
    Invariant.transfers ~entries:[ (1, 399L); (2, 600L) ] ~expected_total:1000L
  in
  Alcotest.(check bool) "lost money detected" false lost.Invariant.ok;
  let negative =
    Invariant.transfers
      ~entries:[ (1, -5L); (2, 1005L) ]
      ~expected_total:1000L
  in
  Alcotest.(check bool) "negative detected" false negative.Invariant.ok

let test_invariant_failed () =
  let r = Invariant.failed "because" in
  Alcotest.(check bool) "not ok" false r.Invariant.ok

(* --- Runner --- *)

let test_runner_completes_all_variants () =
  List.iter
    (fun variant ->
      let r = Runner.run { small_config with Runner.variant } in
      Alcotest.(check bool)
        (Runner.variant_to_string variant ^ " completes")
        true
        (r.Runner.outcome = Runner.Completed);
      Alcotest.(check bool) "consistent" true (Runner.consistent r);
      Alcotest.(check int) "all iterations"
        (small_config.Runner.threads * small_config.Runner.iterations)
        r.Runner.iterations_done;
      Alcotest.(check bool) "positive throughput" true
        (r.Runner.miters_per_sec > 0.))
    Workload.Machine.all_variants

(* CLI spelling round-trip: every variant the runner knows must parse
   back from its canonical spelling — the conv in bin/main.ml and the
   fault injector's printed reproducers both lean on this. *)
let test_variant_round_trip () =
  List.iter
    (fun v ->
      let s = Workload.Machine.variant_to_cli_string v in
      match Workload.Machine.variant_of_string s with
      | Ok v' ->
          Alcotest.(check bool) (s ^ " round-trips") true (v = v')
      | Error e -> Alcotest.fail (s ^ " failed to parse: " ^ e))
    Workload.Machine.all_variants;
  (match Workload.Machine.variant_of_string "no-such-variant" with
  | Ok _ -> Alcotest.fail "nonsense spelling accepted"
  | Error _ -> ());
  (* A couple of documented aliases. *)
  Alcotest.(check bool) "tsp alias" true
    (Workload.Machine.variant_of_string "tsp"
    = Ok (Workload.Machine.Mutex_map Mode.Log_only));
  Alcotest.(check bool) "rcas alias" true
    (Workload.Machine.variant_of_string "rcas"
    = Ok Workload.Machine.Delayfree_map)

(* The recovery-mode and platform spellings the CLI takes, parsed where
   their types live: canonical forms round-trip, aliases resolve, and
   nonsense is refused. *)
let test_mode_platform_round_trip () =
  let module M = Workload.Machine in
  List.iter
    (fun (s, want) ->
      match M.recovery_mode_of_string s with
      | Ok m ->
          Alcotest.(check bool) (s ^ " parses") true (m = want);
          Alcotest.(check bool) (s ^ " round-trips") true
            (M.recovery_mode_of_string (M.recovery_mode_to_string m) = Ok m)
      | Error e -> Alcotest.fail (s ^ " failed to parse: " ^ e))
    [
      ("eager", M.Eager);
      ("parallel", M.Parallel_gc 2);
      ("parallel:3", M.Parallel_gc 3);
      ("incremental", M.Incremental_gc);
      ("lazy", M.Incremental_gc);
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Result.is_error (M.recovery_mode_of_string s)))
    [ "parallel:0"; "bogus" ];
  List.iter
    (fun (s, want) ->
      match Nvm.Config.of_string s with
      | Ok p ->
          Alcotest.(check string) (s ^ " parses") want.Nvm.Config.name
            p.Nvm.Config.name;
          Alcotest.(check bool) (s ^ " round-trips") true
            (Nvm.Config.of_string (Nvm.Config.to_cli_string p) = Ok p)
      | Error e -> Alcotest.fail (s ^ " failed to parse: " ^ e))
    [
      ("desktop", Nvm.Config.desktop);
      ("envy", Nvm.Config.desktop);
      ("server", Nvm.Config.server);
      ("dl580", Nvm.Config.server);
    ];
  Alcotest.(check bool) "bogus platform rejected" true
    (Result.is_error (Nvm.Config.of_string "bogus"))

let test_runner_deterministic () =
  let run () =
    let r = Runner.run { small_config with Runner.seed = 77 } in
    (r.Runner.iterations_done, r.Runner.elapsed_cycles, r.Runner.total_steps)
  in
  Alcotest.(check bool) "identical replay" true (run () = run ())

let test_runner_seed_changes_interleaving () =
  let steps seed =
    (Runner.run
       {
         small_config with
         Runner.seed;
         variant = Runner.Mutex_map Mode.Log_only;
       })
      .Runner.elapsed_cycles
  in
  Alcotest.(check bool) "different seeds, different elapsed" true
    (steps 1 <> steps 2)

let test_runner_crash_tsp_consistent () =
  List.iter
    (fun variant ->
      let r =
        Runner.run
          {
            small_config with
            Runner.variant;
            crash_at_step = Some 9_000;
            journal = true;
            hardware = HW.nvram_machine;
            failure = FC.Power_outage;
          }
      in
      (match r.Runner.outcome with
      | Runner.Crashed _ -> ()
      | _ -> Alcotest.fail "expected crash");
      Alcotest.(check bool)
        (Runner.variant_to_string variant ^ " recovers consistent")
        true (Runner.consistent r);
      match r.Runner.crash with
      | Some c ->
          Alcotest.(check bool) "heap audit ok" true c.heap_audit_ok;
          (match c.observer with
          | Some o ->
              Alcotest.(check bool) "observer prefix" true
                o.Tsp_core.Recovery_observer.prefix_ok
          | None -> Alcotest.fail "journal requested");
          Alcotest.(check bool) "verdict TSP" true
            (Tsp_core.Policy.is_tsp
               (Tsp_core.Policy.decide r.Runner.config.hardware
                  r.Runner.config.failure))
      | None -> Alcotest.fail "crash report missing")
    [ Runner.Mutex_map Mode.Log_only; Runner.Nonblocking_map ]

(* A crash line names the model the crash ran when a fault model
   overrode the policy verdict, and prints the verdict alone otherwise:
   a full discard on a TSP platform must not read as a rescue. *)
let test_runner_crash_names_its_model () =
  let run fault_model =
    Runner.run
      {
        small_config with
        Runner.crash_at_step = Some 9_000;
        hardware = HW.nvram_machine;
        fault_model;
      }
  in
  let model r = Option.map Nvm.Fault_model.to_string r.Runner.crash_model in
  let crash_line r =
    Fmt.str "%a" Runner.pp_result r
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"crash: ")
  in
  let discard = run (Some Nvm.Fault_model.Full_discard) in
  Alcotest.(check (option string)) "the model the discard ran"
    (Some "full-discard") (model discard);
  Alcotest.(check bool) "its crash line names the model" true
    (contains (crash_line discard) "full-discard");
  let rescue = run None in
  Alcotest.(check (option string)) "the model the verdict ran"
    (Some "full-rescue") (model rescue);
  Alcotest.(check string) "without an override, the verdict alone"
    (Fmt.str "crash: %a" Tsp_core.Policy.pp_verdict
       (Tsp_core.Policy.decide HW.nvram_machine
          rescue.Runner.config.Runner.failure))
    (crash_line rescue);
  Alcotest.(check (option string)) "a run that does not crash runs none" None
    (model (Runner.run small_config))

let test_runner_crash_no_tsp_breaks_log_only () =
  (* The E9 negative control: at least some seeds must produce violations
     when dirty lines are dropped and nothing was flushed. *)
  let violated = ref false in
  for seed = 1 to 6 do
    let r =
      Runner.run
        {
          small_config with
          Runner.seed;
          variant = Runner.Mutex_map Mode.Log_only;
          crash_at_step = Some 9_000;
          hardware = HW.conventional_server;
          failure = FC.Power_outage;
        }
    in
    if not (Runner.consistent r) then violated := true
  done;
  Alcotest.(check bool) "some run violated" true !violated

let test_runner_crash_no_tsp_log_flush_survives () =
  for seed = 1 to 3 do
    let r =
      Runner.run
        {
          small_config with
          Runner.seed;
          variant = Runner.Mutex_map Mode.Log_flush;
          crash_at_step = Some 9_000;
          hardware = HW.conventional_server;
          failure = FC.Power_outage;
        }
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d consistent without TSP" seed)
      true (Runner.consistent r)
  done

let test_runner_transfers_conserve () =
  let r =
    Runner.run
      {
        small_config with
        Runner.workload = Runner.Transfers { accounts = 64; initial_balance = 100 };
        variant = Runner.Mutex_map Mode.Log_only;
        iterations = 150;
      }
  in
  Alcotest.(check bool) "completed consistent" true (Runner.consistent r)

let test_runner_transfers_crash_recovers () =
  let r =
    Runner.run
      {
        small_config with
        Runner.workload = Runner.Transfers { accounts = 64; initial_balance = 100 };
        variant = Runner.Mutex_map Mode.Log_only;
        iterations = 400;
        crash_at_step = Some 15_000;
      }
  in
  (match r.Runner.outcome with
  | Runner.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "transfers rolled back cleanly" true
    (Runner.consistent r)

let test_runner_flush_counts_ordered () =
  let flushes variant =
    let r = Runner.run { small_config with Runner.variant } in
    r.Runner.device_stats.Nvm.Stats.flushes
  in
  let log_only = flushes (Runner.Mutex_map Mode.Log_only) in
  let log_flush = flushes (Runner.Mutex_map Mode.Log_flush) in
  Alcotest.(check bool)
    (Printf.sprintf "log-flush (%d) >> log-only (%d)" log_flush log_only)
    true
    (log_flush > (10 * (log_only + 1)))

let test_runner_throughput_ordering () =
  let m variant =
    (Runner.run
       { small_config with Runner.variant; iterations = 400 })
      .Runner.miters_per_sec
  in
  let native = m (Runner.Mutex_map Mode.No_log) in
  let log_only = m (Runner.Mutex_map Mode.Log_only) in
  let log_flush = m (Runner.Mutex_map Mode.Log_flush) in
  Alcotest.(check bool) "native > log" true (native > log_only);
  Alcotest.(check bool) "log > log+flush" true (log_only > log_flush)

let test_runner_mixed_workload () =
  let r =
    Runner.run
      {
        small_config with
        Runner.workload = Runner.Mixed { h_keys = 512; read_pct = 50 };
        variant = Runner.Mutex_map Mode.Log_only;
      }
  in
  Alcotest.(check bool) "mixed completes consistent" true (Runner.consistent r)

let test_runner_mixed_overhead_falls_with_reads () =
  let overhead read_pct =
    let m variant =
      (Runner.run
         {
           small_config with
           Runner.workload = Runner.Mixed { h_keys = 512; read_pct };
           iterations = 300;
           variant;
         })
        .Runner.miters_per_sec
    in
    m (Runner.Mutex_map Mode.No_log) /. m (Runner.Mutex_map Mode.Log_flush)
  in
  Alcotest.(check bool) "read-heavy cheaper to fortify" true
    (overhead 90 < overhead 0)

let test_resume_completes_counters () =
  List.iter
    (fun variant ->
      let r =
        Runner.run_with_resume
          {
            small_config with
            Runner.variant;
            iterations = 200;
            crash_at_step = Some 8_000;
          }
      in
      Alcotest.(check bool)
        (Runner.variant_to_string variant ^ " resumed")
        true r.Runner.resumed;
      Alcotest.(check bool)
        (Runner.variant_to_string variant ^ " completed")
        true r.Runner.completion_ok;
      Alcotest.(check bool) "duplicates within the at-least-once bound" true
        (r.Runner.duplicated_increments <= small_config.Runner.threads);
      (* Each thread resumes after the iteration its recovered c2 names. *)
      let recovered_c2 =
        List.fold_left
          (fun sum tid ->
            match
              List.assoc_opt (Key_space.c2 ~tid) r.Runner.first.Runner.entries
            with
            | Some v -> sum + Int64.to_int v
            | None -> sum)
          0
          (List.init small_config.Runner.threads Fun.id)
      in
      Alcotest.(check int)
        (Runner.variant_to_string variant ^ " resume iterations")
        ((small_config.Runner.threads * 200) - recovered_c2)
        r.Runner.resume_iterations)
    [ Runner.Mutex_map Mode.Log_only; Runner.Nonblocking_map ]

let test_resume_without_crash_is_identity () =
  let r =
    Runner.run_with_resume { small_config with Runner.iterations = 100 }
  in
  Alcotest.(check bool) "no resume phase" false r.Runner.resumed;
  Alcotest.(check bool) "completed" true r.Runner.completion_ok;
  Alcotest.(check int) "no duplicates" 0 r.Runner.duplicated_increments

let test_procrastination_ledger () =
  let l =
    Sweeps.procrastination_ledger ~iterations:300 ~crash_step:25_000 ()
  in
  Alcotest.(check bool) "non-TSP paid many flushes" true
    (l.Sweeps.runtime_flushes_no_tsp > 100);
  Alcotest.(check bool) "TSP rescued a bounded set of lines" true
    (l.Sweeps.rescued_lines_tsp > 0);
  Alcotest.(check bool) "procrastination wins per line" true
    (l.Sweeps.flushes_avoided_per_rescued_line > 1.);
  (* The recovery's own cycles, without the harness's read-back of the
     recovered map. *)
  Alcotest.(check int) "TSP recovery cycles" 20_475_159
    l.Sweeps.recovery_cycles_tsp;
  Alcotest.(check int) "no-TSP recovery cycles" 20_475_645
    l.Sweeps.recovery_cycles_no_tsp

let test_wide_torn_without_rollback () =
  (* E13: multi-word updates + unfortified code: even under a perfect
     TSP rescue (every store durable), a crash inside the store loop
     leaves a torn value.  Scan seeds until one exhibits it. *)
  let wide seed variant =
    Runner.run
      {
        small_config with
        Runner.seed;
        variant;
        workload = Runner.Wide { h_keys = 64; value_words = 8 };
        iterations = 300;
        crash_at_step = Some 9_000;
      }
  in
  let rec find_torn seed =
    if seed > 60 then None
    else
      let r = wide seed (Runner.Mutex_map Mode.No_log) in
      if not r.Runner.invariants.Invariant.ok then Some seed
      else find_torn (seed + 1)
  in
  match find_torn 1 with
  | None -> Alcotest.fail "no torn wide value found in 60 seeds"
  | Some seed ->
      (* The same crash under Atlas log-only must recover untorn. *)
      let fortified = wide seed (Runner.Mutex_map Mode.Log_only) in
      Alcotest.(check bool) "Atlas rollback untears" true
        (Runner.consistent fortified)

let test_wide_fault_campaign_fortified () =
  let spec =
    {
      (FI.default_spec
         {
           small_config with
           Runner.variant = Runner.Mutex_map Mode.Log_only;
           workload = Runner.Wide { h_keys = 64; value_words = 8 };
           iterations = 300;
         })
      with
      FI.runs = 6;
      min_step = 1_000;
      max_step = 25_000;
    }
  in
  let s = FI.run spec in
  Alcotest.(check bool) "never torn under rollback" true (FI.all_consistent s)

let test_runner_btree_variant () =
  let r =
    Runner.run
      {
        small_config with
        Runner.variant = Runner.Mutex_btree Mode.Log_only;
        iterations = 150;
      }
  in
  Alcotest.(check bool) "btree counters complete consistent" true
    (Runner.consistent r)

let test_runner_btree_crash_recovers () =
  let r =
    Runner.run
      {
        small_config with
        Runner.variant = Runner.Mutex_btree Mode.Log_only;
        iterations = 400;
        crash_at_step = Some 25_000;
      }
  in
  (match r.Runner.outcome with
  | Runner.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "btree recovers consistent (incl. tree audit)" true
    (Runner.consistent r)

let test_runner_async_mode_consistent () =
  (* Deferred durability under a non-TSP crash must still verify: the
     recovered state is the watermark prefix, which satisfies the
     invariants like any earlier execution point. *)
  for seed = 1 to 3 do
    let r =
      Runner.run
        {
          small_config with
          Runner.seed;
          variant = Runner.Mutex_map Mode.Log_flush_async;
          crash_at_step = Some 9_000;
          hardware = HW.conventional_server;
          failure = FC.Power_outage;
        }
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d consistent under deferred durability" seed)
      true (Runner.consistent r)
  done

(* --- YCSB --- *)

module Ycsb = Workload.Ycsb

let test_zipf_properties () =
  let z = Ycsb.Zipf.create ~n:1000 () in
  let rng = Sched.Sim_rng.create ~seed:7 in
  let counts = Array.make 1000 0 in
  let samples = 20_000 in
  for _ = 1 to samples do
    let r = Ycsb.Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (r >= 0 && r < 1000);
    counts.(r) <- counts.(r) + 1
  done;
  (* Zipf theta=0.99 over 1000 items: rank 0 takes a large share and the
     head dominates the tail. *)
  Alcotest.(check bool) "rank 0 hottest" true
    (counts.(0) > counts.(1) && counts.(0) > samples / 20);
  let head = Array.fold_left ( + ) 0 (Array.sub counts 0 100) in
  Alcotest.(check bool)
    (Printf.sprintf "head 10%% gets the majority (%d/%d)" head samples)
    true
    (head > samples / 2);
  check_raises_invalid "bad theta" (fun () ->
      ignore (Ycsb.Zipf.create ~theta:1.5 ~n:10 ()));
  check_raises_invalid "bad n" (fun () -> ignore (Ycsb.Zipf.create ~n:0 ()))

let test_ycsb_mixes () =
  let rng = Sched.Sim_rng.create ~seed:3 in
  let count preset =
    let r = ref 0 and u = ref 0 and m = ref 0 in
    for _ = 1 to 10_000 do
      match Ycsb.pick_op preset rng with
      | Ycsb.Read -> incr r
      | Ycsb.Update -> incr u
      | Ycsb.Rmw -> incr m
    done;
    (!r, !u, !m)
  in
  let r, u, m = count Ycsb.A in
  Alcotest.(check bool) "A is ~50/50 read/update" true
    (abs (r - u) < 1000 && m = 0);
  let r, _, _ = count Ycsb.B in
  Alcotest.(check bool) "B is read-mostly" true (r > 9_200);
  let r, u, m = count Ycsb.C in
  Alcotest.(check (pair int int)) "C is read-only" (0, 0) (u, m);
  ignore r;
  let _, u, m = count Ycsb.F in
  Alcotest.(check bool) "F replaces updates with RMW" true (u = 0 && m > 4_000);
  List.iter
    (fun p ->
      Alcotest.(check bool) "preset string roundtrip" true
        (Ycsb.preset_of_string (Ycsb.preset_to_string p) = Ok p))
    Ycsb.all_presets

let ycsb_config preset =
  {
    small_config with
    Runner.workload = Runner.Ycsb { preset; records = 1024 };
    iterations = 200;
  }

let test_ycsb_runs_consistent () =
  List.iter
    (fun preset ->
      let r = Runner.run (ycsb_config preset) in
      Alcotest.(check bool)
        ("YCSB-" ^ Ycsb.preset_to_string preset ^ " consistent")
        true (Runner.consistent r);
      Alcotest.(check bool) "latencies recorded" true
        (Array.length r.Runner.latencies_cycles > 0))
    Ycsb.all_presets

let test_ycsb_crash_recovers () =
  let r =
    Runner.run
      {
        (ycsb_config Ycsb.A) with
        Runner.variant = Runner.Mutex_map Mode.Log_only;
        iterations = 600;
        crash_at_step = Some 20_000;
      }
  in
  (match r.Runner.outcome with
  | Runner.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "records intact after crash" true (Runner.consistent r)

let test_latency_percentiles () =
  let samples = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check (list (pair (float 0.001) int)))
    "quantiles"
    [ (0.5, 50); (0.99, 99) ]
    (Report.percentiles samples [ 0.5; 0.99 ]);
  Alcotest.(check (list (pair (float 0.001) int))) "empty" []
    (Report.percentiles [||] [ 0.5 ])

(* --- Fault injector --- *)

let test_fault_campaign_tsp () =
  let spec =
    {
      (FI.default_spec
         { small_config with Runner.variant = Runner.Mutex_map Mode.Log_only })
      with
      FI.runs = 8;
      min_step = 200;
      max_step = 20_000;
    }
  in
  let s = FI.run spec in
  Alcotest.(check int) "all runs executed" 8 s.FI.total;
  Alcotest.(check bool) "every crash recovered" true (FI.all_consistent s);
  Alcotest.(check bool) "rate zero" true (FI.violation_rate s = 0.)

let test_fault_campaign_records_outcomes () =
  let spec =
    {
      (FI.default_spec
         { small_config with Runner.variant = Runner.Nonblocking_map })
      with
      FI.runs = 5;
      min_step = 200;
      max_step = 15_000;
    }
  in
  let s = FI.run spec in
  Alcotest.(check int) "outcome per run" 5 (List.length s.FI.outcomes);
  List.iter
    (fun o ->
      Alcotest.(check bool) "crash step recorded" true (o.FI.crash_step >= 200))
    s.FI.outcomes

let test_fault_campaign_negative_control () =
  let spec =
    {
      (FI.default_spec
         {
           small_config with
           Runner.variant = Runner.Mutex_map Mode.Log_only;
           hardware = HW.conventional_server;
           failure = FC.Power_outage;
         })
      with
      FI.runs = 6;
      min_step = 2_000;
      max_step = 20_000;
    }
  in
  let s = FI.run spec in
  Alcotest.(check bool) "violations detected" true (s.FI.violations > 0)

(* --- Table 1 --- *)

let test_table1_shape () =
  let row =
    Table1.run_row ~threads:8 ~iterations:400 Nvm.Config.desktop
      Table1.paper_desktop
  in
  Alcotest.(check bool) "ordering holds" true (Table1.shape_ok row);
  Alcotest.(check int) "four cells" 4 (List.length row.Table1.cells);
  let rendered = Format.asprintf "%t" (Table1.render [ row ]) in
  Alcotest.(check bool) "render mentions platform" true
    (String.length rendered > 0);
  Alcotest.(check bool) "the header states 8 threads" true
    (contains rendered "(8 worker threads,");
  let two =
    Table1.run_row ~threads:2 ~iterations:40 Nvm.Config.desktop
      Table1.paper_desktop
  in
  Alcotest.(check bool) "the header states 2 threads" true
    (contains
       (Format.asprintf "%t" (Table1.render [ two ]))
       "(2 worker threads,")

(* --- Sweeps / report --- *)

let test_sweep_flush_latency_widens_gap () =
  let t = Sweeps.flush_latency ~iterations:250 ~latencies:[ 50; 800 ] () in
  let speedup p = List.assoc "TSP speedup" p.Sweeps.values in
  match t.Sweeps.points with
  | [ low; high ] ->
      Alcotest.(check bool)
        (Printf.sprintf "gap widens: %.2f -> %.2f" (speedup low) (speedup high))
        true
        (speedup high > speedup low)
  | _ -> Alcotest.fail "two points expected"

let test_sweep_log_cost_raises_overhead () =
  let t = Sweeps.log_cost_ablation ~iterations:250 ~log_cycles:[ 45; 900 ] () in
  let ov p = List.assoc "overhead log-only" p.Sweeps.values in
  match t.Sweeps.points with
  | [ cheap; dear ] ->
      Alcotest.(check bool) "overhead grows with log cost" true
        (ov dear > ov cheap)
  | _ -> Alcotest.fail "two points expected"

(* E12: undo logging and flushing act only on stores, so both overheads
   fall strictly at each step from 0% to 90% read-only iterations. *)
let test_sweep_read_ratio_lowers_overhead () =
  let t = Sweeps.read_ratio ~iterations:40 ~jobs:1 () in
  let falls name =
    let ovs =
      List.map (fun p -> List.assoc name p.Sweeps.values) t.Sweeps.points
    in
    let rec strictly = function
      | a :: (b :: _ as rest) -> b < a && strictly rest
      | _ -> true
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s falls: %s" name
         (String.concat " -> " (List.map (Printf.sprintf "%.2f") ovs)))
      true
      (List.length ovs = 5 && strictly ovs)
  in
  falls "overhead log-only";
  falls "overhead log+flush"

let test_report_table () =
  let out =
    Format.asprintf "%t"
      (Report.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ])
  in
  Alcotest.(check bool) "aligned output" true
    (String.length out > 0 && String.contains out '-')

let test_report_capped_rows () =
  let render n =
    Format.asprintf "@[<v>rows%a@]"
      (Report.capped_rows ~more:"rows" Format.pp_print_int)
      (List.init n Fun.id)
  in
  let shown = "rows" :: List.init 20 string_of_int in
  Alcotest.(check string) "20 rows: every one shown"
    (String.concat "\n" shown) (render 20);
  Alcotest.(check string) "21 rows: the 21st is counted, not shown"
    (String.concat "\n" (shown @ [ "... and 1 more rows" ]))
    (render 21)

(* The crash steps of a [faults --exhaustive] or [check] window. *)
let test_crash_steps () =
  let steps from_step window stride =
    Runner.crash_steps { Runner.from_step; window; stride }
  in
  Alcotest.(check (list int)) "a stride below 1 counts as 1" [ 5; 6; 7 ]
    (steps 5 3 0);
  Alcotest.(check (list int)) "a negative stride counts as 1" [ 5; 6; 7 ]
    (steps 5 3 (-2));
  Alcotest.(check (list int)) "a partial last stride still enumerates"
    [ 100; 140; 180 ] (steps 100 100 40);
  Alcotest.(check (list int)) "a window of 1 is its first step" [ 40_000 ]
    (steps 40_000 1 50)

let test_report_ratio_pct () =
  Alcotest.(check string) "ratio" "2.00x" (Report.ratio 4. 2.);
  Alcotest.(check string) "ratio undefined" "-" (Report.ratio 4. 0.);
  Alcotest.(check string) "pct" "-50%" (Report.pct_change ~base:4. 2.);
  Alcotest.(check string) "pct up" "+25%" (Report.pct_change ~base:4. 5.)

(* --- One run configuration: its preload and its validity --- *)

(* Compile-time witness: the run config and the machine's config are one
   type, so neither needs converting into the other. *)
let (_ : Runner.config -> Workload.Machine.config) = Fun.id

let every_workload =
  [
    Runner.Counters { h_keys = 64; preload = true };
    Runner.Counters { h_keys = 64; preload = false };
    Runner.Mixed { h_keys = 64; read_pct = 50 };
    Runner.Wide { h_keys = 64; value_words = 4 };
    Runner.Ycsb { preset = Workload.Ycsb.B; records = 200 };
    Runner.Transfers { accounts = 50; initial_balance = 1000 };
  ]

let workload_label = function
  | Runner.Counters { preload = true; _ } -> "counters"
  | Runner.Counters { preload = false; _ } -> "counters without preload"
  | Runner.Mixed _ -> "mixed"
  | Runner.Wide _ -> "wide"
  | Runner.Ycsb _ -> "ycsb"
  | Runner.Transfers _ -> "transfers"

(* What a run stores before its threads start is what the checker takes
   as its baseline: a crash-free run that performs no iteration dumps
   exactly [Runner.initial_entries], the populate_objects ballast
   included, on every structure that can run the workload. *)
let test_initial_entries_are_stored () =
  let by_key = List.sort (fun (a, _) (b, _) -> Int.compare a b) in
  List.iter
    (fun variant ->
      List.iter
        (fun workload ->
          List.iter
            (fun populate_objects ->
              let config =
                {
                  small_config with
                  Runner.variant;
                  workload;
                  populate_objects;
                  threads = 4;
                  iterations = 0;
                }
              in
              if Result.is_ok (Runner.validate config) then begin
                let r = Runner.run config in
                Alcotest.(check (list (pair int int64)))
                  (Printf.sprintf "%s, %s, %d ballast"
                     (Runner.variant_to_cli_string variant)
                     (workload_label workload) populate_objects)
                  (Runner.initial_entries config)
                  (by_key r.Runner.entries)
              end)
            [ 0; 700 ])
        every_workload)
    [
      Runner.Mutex_map Mode.Log_only;
      Runner.Mutex_btree Mode.Log_only;
      Runner.Nonblocking_map;
      Runner.Nvtraverse_map;
      Runner.Delayfree_map;
    ]

(* Wide values and transfers need the hash map, at any Atlas mode; every
   other workload runs anywhere.  A rejected config is refused before a
   machine is built, by a run and by a fault campaign alike. *)
let test_validate () =
  let config variant workload =
    { small_config with Runner.variant; workload }
  in
  List.iter
    (fun mode ->
      List.iter
        (fun workload ->
          Alcotest.(check bool)
            (Printf.sprintf "%s runs %s" (Mode.to_string mode)
               (workload_label workload))
            true
            (Result.is_ok
               (Runner.validate (config (Runner.Mutex_map mode) workload))))
        every_workload)
    Mode.all;
  List.iter
    (fun variant ->
      let name = Runner.variant_to_cli_string variant in
      List.iter
        (fun workload ->
          let c = config variant workload in
          let label = Printf.sprintf "%s, %s" name (workload_label workload) in
          match workload with
          | Runner.Wide _ | Runner.Transfers _ ->
              Alcotest.(check bool) (label ^ " rejected") true
                (Result.is_error (Runner.validate c));
              check_raises_invalid (label ^ ": run refuses") (fun () ->
                  ignore (Runner.run c));
              check_raises_invalid (label ^ ": campaign refuses") (fun () ->
                  ignore
                    (FI.run ~jobs:1 { (FI.default_spec c) with FI.runs = 1 }))
          | Runner.Counters _ | Runner.Mixed _ | Runner.Ycsb _ ->
              Alcotest.(check bool) (label ^ " accepted") true
                (Result.is_ok (Runner.validate c)))
        every_workload)
    [
      Runner.Mutex_btree Mode.Log_only;
      Runner.Nonblocking_map;
      Runner.Nvtraverse_map;
      Runner.Delayfree_map;
    ]

(* Only counters resume.  The rule is checked before any simulation
   ([tsp run --resume --transfers] reports it as a usage error), and
   the resume driver refuses a transfer run. *)
let test_resume_rejects_transfers () =
  List.iter
    (fun workload ->
      let counters =
        match workload with Runner.Counters _ -> true | _ -> false
      in
      Alcotest.(check bool)
        (workload_label workload ^ " resumes")
        counters
        (Result.is_ok
           (Runner.validate_resume { small_config with Runner.workload })))
    every_workload;
  Alcotest.(check bool) "transfers rejected" true
    (match
       Runner.run_with_resume
         {
           small_config with
           Runner.workload =
             Runner.Transfers { accounts = 8; initial_balance = 10 };
         }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Ballast is not workload data.  With more ballast keys than the
   workload has H keys, a crash-free run passes its invariants, on every
   workload: sum(H) counts only what the workload added, and untorn,
   record-count and conservation skip the ballast-only keys.  A lost
   increment planted on a workload key, or a write planted on a
   ballast-only key, still fails eq2. *)
let test_ballast_is_not_workload_data () =
  List.iter
    (fun workload ->
      let config =
        {
          small_config with
          Runner.variant = Runner.Mutex_map Mode.Log_only;
          workload;
          populate_objects = 300;
          threads = 2;
          iterations = 40;
        }
      in
      let r = Runner.run config in
      Alcotest.(check bool)
        (Printf.sprintf "%s with ballast: %s" (workload_label workload)
           (Format.asprintf "%a" Invariant.pp r.Runner.invariants))
        true (Runner.consistent r))
    every_workload;
  let config =
    {
      small_config with
      Runner.variant = Runner.Mutex_map Mode.Log_only;
      workload = Runner.Counters { h_keys = 64; preload = true };
      populate_objects = 300;
      threads = 2;
      iterations = 40;
    }
  in
  let r = Runner.run config in
  let initial = Runner.initial_entries config in
  let threads = config.Runner.threads in
  let eq2_ok entries =
    List.exists
      (fun (c : Invariant.check) ->
        String.starts_with ~prefix:"eq2" c.Invariant.name && c.Invariant.ok)
      (Invariant.counters ~initial ~entries ~threads).Invariant.checks
  in
  Alcotest.(check bool) "eq2 holds on the run" true (eq2_ok r.Runner.entries);
  let plant key f =
    List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) r.Runner.entries
  in
  let incremented =
    List.find
      (fun (k, v) -> Key_space.is_h k && k < Key_space.h_key 64 && v > 0L)
      r.Runner.entries
  in
  Alcotest.(check bool) "a lost increment on a workload key fails eq2" false
    (eq2_ok (plant (fst incremented) Int64.pred));
  Alcotest.(check bool) "a write on a ballast-only key fails eq2" false
    (eq2_ok (plant (Key_space.h_key 200) Int64.succ))

let suite =
  ( "workload",
    [
      case "key space split" test_key_space;
      case "invariants: consistent counters pass" test_invariant_counters_pass;
      case "invariants: eq1 violation detected" test_invariant_counters_eq1_fail;
      case "invariants: eq2 violation detected" test_invariant_counters_eq2_fail;
      case "invariants: per-thread violation detected"
        test_invariant_counters_per_thread_fail;
      case "invariants: transfer conservation" test_invariant_transfers;
      case "invariants: failed result" test_invariant_failed;
      slow_case "runner: all variants complete consistently"
        test_runner_completes_all_variants;
      case "runner: variant spellings round-trip" test_variant_round_trip;
      case "runner: recovery-mode and platform spellings round-trip"
        test_mode_platform_round_trip;
      case "runner: deterministic replay" test_runner_deterministic;
      case "runner: seed perturbs interleaving"
        test_runner_seed_changes_interleaving;
      slow_case "runner: TSP crash recovery (both case studies)"
        test_runner_crash_tsp_consistent;
      slow_case "runner: E9 negative control violates"
        test_runner_crash_no_tsp_breaks_log_only;
      slow_case "runner: log-flush survives without TSP"
        test_runner_crash_no_tsp_log_flush_survives;
      case "runner: transfers conserve money" test_runner_transfers_conserve;
      case "runner: transfers recover after crash"
        test_runner_transfers_crash_recovers;
      case "runner: flush counts ordered by mode"
        test_runner_flush_counts_ordered;
      case "runner: throughput ordering" test_runner_throughput_ordering;
      case "runner: mixed workload consistent" test_runner_mixed_workload;
      slow_case "runner: overhead falls with read share (E12)"
        test_runner_mixed_overhead_falls_with_reads;
      slow_case "resume: crash, recover, finish (both case studies)"
        test_resume_completes_counters;
      case "resume: no crash means no resume phase"
        test_resume_without_crash_is_identity;
      case "resume: transfers rejected" test_resume_rejects_transfers;
      case "runner: ballast is not workload data"
        test_ballast_is_not_workload_data;
      slow_case "procrastination ledger (E11)" test_procrastination_ledger;
      slow_case "wide values tear without rollback, not with it (E13)"
        test_wide_torn_without_rollback;
      slow_case "wide values: fortified fault campaign"
        test_wide_fault_campaign_fortified;
      case "runner: btree variant completes" test_runner_btree_variant;
      slow_case "runner: btree crash recovery with tree audit"
        test_runner_btree_crash_recovers;
      slow_case "runner: deferred durability survives non-TSP crashes"
        test_runner_async_mode_consistent;
      case "ycsb: zipfian generator" test_zipf_properties;
      case "ycsb: operation mixes" test_ycsb_mixes;
      slow_case "ycsb: all presets run consistent" test_ycsb_runs_consistent;
      case "ycsb: crash recovery keeps records" test_ycsb_crash_recovers;
      case "report: latency percentiles" test_latency_percentiles;
      slow_case "fault campaign: TSP always recovers" test_fault_campaign_tsp;
      case "fault campaign: outcome bookkeeping"
        test_fault_campaign_records_outcomes;
      slow_case "fault campaign: negative control"
        test_fault_campaign_negative_control;
      slow_case "table 1: qualitative shape" test_table1_shape;
      slow_case "sweep: flush latency widens the TSP gap"
        test_sweep_flush_latency_widens_gap;
      slow_case "sweep: log cost raises overhead"
        test_sweep_log_cost_raises_overhead;
      case "sweep: read share lowers both overheads"
        test_sweep_read_ratio_lowers_overhead;
      case "report: table rendering" test_report_table;
      case "report: ratio and percentage" test_report_ratio_pct;
      case "report: the first 20 failing rows" test_report_capped_rows;
      case "runner: crash steps of a window" test_crash_steps;
      case "runner: a run stores exactly its initial entries"
        test_initial_entries_are_stored;
      case "runner: wide values and transfers need the hash map" test_validate;
      case "runner: a crash line names the model the crash ran"
        test_runner_crash_names_its_model;
    ] )
