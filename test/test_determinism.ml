(* End-to-end determinism guarantees: the multicore sweep execution
   must be invisible in every simulated observable.  The scheduler's
   quanta are held to the per-op reference in test_quantum.ml. *)

open Helpers
module Sweeps = Workload.Sweeps
module Table1 = Workload.Table1

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
      case "sweep results independent of --jobs" test_sweep_jobs_invariant;
      case "table1 results independent of --jobs" test_table1_jobs_invariant;
      slow_case "exhaustive fault campaigns independent of --jobs"
        test_fault_campaign_jobs_invariant;
    ] )
