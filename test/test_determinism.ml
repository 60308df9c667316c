(* End-to-end determinism guarantees introduced by the perf overhaul:
   the scheduler's uncontended fast path and the multicore sweep
   execution must both be invisible in every simulated observable. *)

open Helpers
module Stats = Nvm.Stats
module Mutex = Scheduler.Mutex
module Sweeps = Workload.Sweeps
module Table1 = Workload.Table1

(* A small mixed workload: contended phase (two threads through a mutex)
   followed by a long uncontended tail, with cost jitter so the RNG
   stream matters.  Returns every observable of the run. *)
let mini_run ~slice =
  let pmem = desktop_pmem ~region_mib:1 () in
  let sched =
    Scheduler.create ~seed:7 ~cost_jitter:3 ~deterministic_slice:slice ()
  in
  let m = Mutex.create sched in
  let body tid () =
    for i = 0 to 399 do
      Mutex.lock m;
      let addr = (i * 64) land 0xFFFF in
      Pmem.store_int pmem addr ((tid * 100_000) + i);
      ignore (Pmem.load_int pmem addr : int);
      if i land 63 = 0 then begin
        Pmem.flush pmem addr;
        Pmem.fence pmem
      end;
      Mutex.unlock m
    done;
    (* Uncontended tail for thread 0 only: exercises the fast path. *)
    if tid = 0 then
      for i = 0 to 1_999 do
        Pmem.store_int pmem ((i * 8) land 0xFFFF) i
      done
  in
  ignore (Scheduler.spawn sched ~name:"t0" (body 0) : int);
  ignore (Scheduler.spawn sched ~name:"t1" (body 1) : int);
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  Pmem.clear_step_hook pmem;
  ( Pmem.stats pmem,
    Pmem.durable_snapshot pmem,
    Scheduler.elapsed_cycles sched,
    Scheduler.total_steps sched )

let test_fast_path_invisible () =
  let stats_on, durable_on, cycles_on, steps_on =
    mini_run ~slice:Scheduler.default_slice
  in
  let stats_off, durable_off, cycles_off, steps_off = mini_run ~slice:0 in
  Alcotest.(check int) "elapsed cycles" cycles_off cycles_on;
  Alcotest.(check int) "total steps" steps_off steps_on;
  Alcotest.(check bool)
    "all device counters identical" true
    (stats_on = stats_off);
  Alcotest.(check int)
    "total cycles identical"
    (Stats.total_cycles stats_off)
    (Stats.total_cycles stats_on);
  Alcotest.(check bool)
    "final durable bytes identical" true
    (String.equal durable_on durable_off)

let test_fast_path_invisible_under_crash () =
  (* The crash window must open at the same step either way, leaving the
     same durable image. *)
  let crashed ~slice =
    let pmem = desktop_pmem ~region_mib:1 () in
    let sched = Scheduler.create ~seed:11 ~deterministic_slice:slice () in
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 0 to 9_999 do
             Pmem.store_int pmem ((i * 8) land 0xFFFF) i
           done)
        : int);
    Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
    let outcome = Scheduler.run ~crash_at_step:1234 sched in
    Pmem.clear_step_hook pmem;
    (match outcome with
    | Scheduler.Crashed { at_step } ->
        Alcotest.(check int) "crash step" 1234 at_step
    | _ -> Alcotest.fail "expected a crash");
    crash pmem FM.Full_rescue;
    Pmem.durable_snapshot pmem
  in
  Alcotest.(check bool)
    "post-crash durable image identical" true
    (String.equal (crashed ~slice:Scheduler.default_slice) (crashed ~slice:0))

let test_sweep_jobs_invariant () =
  let sweep jobs =
    Sweeps.flush_latency ~iterations:40 ~latencies:[ 100; 400 ] ~jobs ()
  in
  let s1 = sweep 1 and s4 = sweep 4 in
  Alcotest.(check bool) "flush-latency sweep: jobs 1 = jobs 4" true (s1 = s4)

let test_table1_jobs_invariant () =
  let row jobs =
    Table1.run_row ~threads:2 ~iterations:120 ~repeats:2 ~jobs
      Nvm.Config.desktop Table1.paper_desktop
  in
  let extract (r : Table1.row) =
    List.map
      (fun (c : Table1.cell) ->
        ( c.Table1.measured_miters,
          c.Table1.spread_miters,
          c.Table1.result.Workload.Runner.elapsed_cycles ))
      r.Table1.cells
  in
  Alcotest.(check bool)
    "table1 row: jobs 1 = jobs 4" true
    (extract (row 1) = extract (row 4))

let test_fault_campaign_jobs_invariant () =
  (* An exhaustive crash-point campaign must render byte-identically no
     matter how the runs are fanned out — per fault model, including the
     RNG-driven adversarial ones (their randomness is seed-derived per
     run, never drawn from a shared stream during the fan-out). *)
  let module FI = Workload.Fault_injector in
  let module FM = Nvm.Fault_model in
  let base =
    {
      (Workload.Runner.smoke
         (Workload.Runner.calibrated_config Nvm.Config.desktop))
      with
      Workload.Runner.variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only;
      iterations = 60;
    }
  in
  List.iter
    (fun fm ->
      let spec =
        {
          (FI.default_spec base) with
          FI.fault_models = [ Some fm ];
          exhaustive = Some { FI.from_step = 2_000; window = 600; stride = 150 };
        }
      in
      let render jobs = Fmt.str "%a" FI.pp_summary (FI.run ~jobs spec) in
      Alcotest.(check bool)
        (FM.to_string fm ^ ": jobs 1 = jobs 4")
        true
        (String.equal (render 1) (render 4)))
    FM.reference

let suite =
  ( "determinism",
    [
      case "scheduler fast path is observationally invisible"
        test_fast_path_invisible;
      case "fast path invisible across a crash" test_fast_path_invisible_under_crash;
      case "sweep results independent of --jobs" test_sweep_jobs_invariant;
      case "table1 results independent of --jobs" test_table1_jobs_invariant;
      slow_case "exhaustive fault campaigns independent of --jobs"
        test_fault_campaign_jobs_invariant;
    ] )
