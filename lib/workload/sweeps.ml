type point = { x : float; values : (string * float) list }

type series_table = { title : string; x_label : string; points : point list }

let run_config config =
  let r = Runner.run config in
  if not (Runner.consistent r) then
    Fmt.failwith
      "sweep run inconsistent for %s (seed %d, %d threads x %d iterations, %d \
       sim cycles): %a"
      (Runner.variant_to_string config.Runner.variant)
      config.Runner.seed config.Runner.threads config.Runner.iterations
      r.Runner.elapsed_cycles Invariant.pp r.Runner.invariants;
  r

let miters config = (run_config config).Runner.miters_per_sec

let flush_latency ?(iterations = 1500)
    ?(latencies = [ 50; 100; 250; 500; 750; 1000 ]) ?jobs () =
  let base = { (Runner.calibrated_config Nvm.Config.desktop) with Runner.iterations } in
  let point lat =
    let platform = { base.Runner.platform with Nvm.Config.flush_cost = lat } in
    let cfg variant = { base with Runner.platform; variant } in
    let log_only = miters (cfg (Runner.Mutex_map Atlas.Mode.Log_only)) in
    let log_flush = miters (cfg (Runner.Mutex_map Atlas.Mode.Log_flush)) in
    let log_async = miters (cfg (Runner.Mutex_map Atlas.Mode.Log_flush_async)) in
    {
      x = float_of_int lat;
      values =
        [
          ("log-only (TSP)", log_only);
          ("log+flush (no TSP)", log_flush);
          ("deferred (no TSP)", log_async);
          ("TSP speedup", log_only /. log_flush);
        ];
    }
  in
  {
    title = "E7: TSP advantage vs NVM flush latency (desktop, 8 threads)";
    x_label = "flush latency (cycles)";
    points = Parallel.map ?jobs point latencies;
  }

let thread_scaling ?(iterations = 1500) ?jobs () =
  let point threads =
    let cfg variant =
      {
        (Runner.calibrated_config Nvm.Config.desktop) with
        Runner.threads;
        iterations;
        variant;
      }
    in
    let v name variant = (name, miters (cfg variant)) in
    {
      x = float_of_int threads;
      values =
        [
          v "no Atlas" (Runner.Mutex_map Atlas.Mode.No_log);
          v "log only" (Runner.Mutex_map Atlas.Mode.Log_only);
          v "log+flush" (Runner.Mutex_map Atlas.Mode.Log_flush);
          v "non-blocking" Runner.Nonblocking_map;
        ];
    }
  in
  {
    title = "E8: throughput scaling with worker threads (desktop)";
    x_label = "threads";
    points = Parallel.map ?jobs point [ 1; 2; 4; 8; 16 ];
  }

let log_cost_ablation ?(iterations = 1500)
    ?(log_cycles = [ 45; 150; 310; 600; 1200 ]) ?jobs () =
  let point lc =
    let base = Runner.calibrated_config Nvm.Config.desktop in
    let costs =
      { base.Runner.atlas_costs with Atlas.Runtime.log_cycles = lc }
    in
    let cfg variant =
      { base with Runner.iterations; atlas_costs = costs; variant }
    in
    let native = miters (cfg (Runner.Mutex_map Atlas.Mode.No_log)) in
    let log_only = miters (cfg (Runner.Mutex_map Atlas.Mode.Log_only)) in
    let log_flush = miters (cfg (Runner.Mutex_map Atlas.Mode.Log_flush)) in
    {
      x = float_of_int lc;
      values =
        [
          ("overhead log-only", native /. log_only);
          ("overhead log+flush", native /. log_flush);
        ];
    }
  in
  {
    title =
      "E4: fortification overhead factor vs per-entry logging cost (the \
       application study regime: ~3x log, ~5x log+flush)";
    x_label = "log entry cost (cycles)";
    points = Parallel.map ?jobs point log_cycles;
  }

let cache_ablation ?(iterations = 1500) ?jobs () =
  let point lines =
    let base = Runner.calibrated_config Nvm.Config.desktop in
    let platform =
      { base.Runner.platform with Nvm.Config.cache_lines = lines }
    in
    let cfg =
      {
        base with
        Runner.platform;
        iterations;
        variant = Runner.Mutex_map Atlas.Mode.Log_only;
      }
    in
    let r = run_config cfg in
    (* A second run crashes mid-stream without TSP to count how much
       dirty data a rescue would have had to save at that instant. *)
    let crash_cfg =
      {
        cfg with
        Runner.crash_at_step = Some 50_000;
        journal = true;
        hardware = Tsp_core.Hardware.conventional_server;
        failure = Tsp_core.Failure_class.Power_outage;
      }
    in
    let cr = Runner.run crash_cfg in
    let dropped = cr.Runner.device_stats.Nvm.Stats.dropped_lines in
    {
      x = float_of_int lines;
      values =
        [
          ("log-only Miter/s", r.Runner.miters_per_sec);
          ("hit rate %", 100. *. Nvm.Stats.hit_rate r.Runner.device_stats);
          ("dirty lines lost at crash", float_of_int dropped);
        ];
    }
  in
  {
    title =
      "cache-size ablation: natural write-back shrinks the data a TSP \
       rescue must save, at the price of miss latency";
    x_label = "cache lines";
    points = Parallel.map ?jobs point [ 512; 2048; 8192; 32768 ];
  }

(* Every point of a sweep carries the same series in the same order, so
   the first point's names head the columns. *)
let render t ppf =
  let names = match t.points with p :: _ -> List.map fst p.values | [] -> [] in
  let rows =
    List.map
      (fun p ->
        Printf.sprintf "%g" p.x
        :: List.map (fun (_, v) -> Printf.sprintf "%.2f" v) p.values)
      t.points
  in
  Format.fprintf ppf "%s@.@." t.title;
  Report.table ~header:(t.x_label :: names) ~rows ppf

let read_ratio ?(iterations = 1500) ?jobs () =
  let point read_pct =
    let base = Runner.calibrated_config Nvm.Config.desktop in
    let cfg variant =
      {
        base with
        Runner.iterations;
        workload = Runner.Mixed { h_keys = 65536; read_pct };
        variant;
      }
    in
    let native = miters (cfg (Runner.Mutex_map Atlas.Mode.No_log)) in
    let log_only = miters (cfg (Runner.Mutex_map Atlas.Mode.Log_only)) in
    let log_flush = miters (cfg (Runner.Mutex_map Atlas.Mode.Log_flush)) in
    {
      x = float_of_int read_pct;
      values =
        [
          ("no Atlas", native);
          ("log only", log_only);
          ("log+flush", log_flush);
          ("overhead log-only", native /. log_only);
          ("overhead log+flush", native /. log_flush);
        ];
    }
  in
  {
    title =
      "E12: fortification overhead vs read share (reads are never logged \
       or flushed, so procrastination costs nothing on them)";
    x_label = "read-only iterations (%)";
    points = Parallel.map ?jobs point [ 0; 25; 50; 75; 90 ];
  }

(* E11: the procrastinator's ledger.  TSP trades failure-free flushes
   for crash-time and recovery-time work; both sides of that trade are
   measurable.  For one crash point we report the synchronous flushes
   the non-TSP mode performed before the same crash, against the lines
   the TSP rescue had to write back plus the recovery pipeline's cost. *)
type ledger = {
  crash_step : int;
  runtime_flushes_no_tsp : int;  (** flushes log+flush issued before the crash *)
  rescued_lines_tsp : int;  (** lines the TSP rescue saved at crash time *)
  recovery_cycles_tsp : int;
  recovery_cycles_no_tsp : int;
  flushes_avoided_per_rescued_line : float;
}

let procrastination_ledger ?(iterations = 1200) ?(crash_step = 100_000) ?jobs
    () =
  let base =
    {
      (Runner.calibrated_config Nvm.Config.desktop) with
      Runner.iterations;
      crash_at_step = Some crash_step;
    }
  in
  let crashed cfg =
    let r = Runner.run cfg in
    match (r.Runner.outcome, r.Runner.crash) with
    | Runner.Crashed _, Some c -> (r, c)
    | _ -> Fmt.failwith "ledger: crash point %d not reached" crash_step
  in
  let tsp_side, no_tsp_side =
    match
      Parallel.map ?jobs crashed
        [
          {
            base with
            Runner.variant = Runner.Mutex_map Atlas.Mode.Log_only;
            hardware = Tsp_core.Hardware.nvram_machine;
            failure = Tsp_core.Failure_class.Power_outage;
          };
          {
            base with
            Runner.variant = Runner.Mutex_map Atlas.Mode.Log_flush;
            hardware = Tsp_core.Hardware.conventional_server;
            failure = Tsp_core.Failure_class.Power_outage;
          };
        ]
    with
    | [ a; b ] -> (a, b)
    | rs ->
        Fmt.invalid_arg
          "Sweeps.procrastination_ledger: Parallel.map returned %d results \
           for 2 configs"
          (List.length rs)
  in
  let tsp_run, tsp_crash = tsp_side in
  let no_tsp_run, no_tsp_crash = no_tsp_side in
  let runtime_flushes = no_tsp_run.Runner.device_stats.Nvm.Stats.flushes in
  let rescued = tsp_run.Runner.device_stats.Nvm.Stats.rescued_lines in
  {
    crash_step;
    runtime_flushes_no_tsp = runtime_flushes;
    rescued_lines_tsp = rescued;
    recovery_cycles_tsp = tsp_crash.Machine.recovery_cycles;
    recovery_cycles_no_tsp = no_tsp_crash.Machine.recovery_cycles;
    flushes_avoided_per_rescued_line =
      (if rescued = 0 then infinity
       else float_of_int runtime_flushes /. float_of_int rescued);
  }

let pp_ledger ppf l =
  Fmt.pf ppf
    "@[<v>E11: the procrastinator's ledger (crash at step %d)@ @ \
     prevention (log+flush, no TSP): %d synchronous flushes before the \
     crash@ procrastination (log-only, TSP): %d dirty lines rescued at \
     crash time@ => %.1f runtime flushes avoided per crash-time line \
     rescued@ @ recovery pipeline: %a (TSP) vs %a (no TSP)@ \
     (recovery work is paid once per failure; the flushes were paid on \
     every store)@]"
    l.crash_step l.runtime_flushes_no_tsp l.rescued_lines_tsp
    l.flushes_avoided_per_rescued_line Nvm.Cost_model.pp_cycles
    l.recovery_cycles_tsp Nvm.Cost_model.pp_cycles l.recovery_cycles_no_tsp

(* YCSB comparison: one preset across the map variants, with throughput
   and per-operation latency percentiles (simulated cycles). *)
let ycsb_table ?(iterations = 1500) ?(records = 16384) ?jobs preset =
  let variants =
    [
      Runner.Mutex_map Atlas.Mode.No_log;
      Runner.Mutex_map Atlas.Mode.Log_only;
      Runner.Mutex_map Atlas.Mode.Log_flush;
      Runner.Mutex_btree Atlas.Mode.Log_only;
      Runner.Nonblocking_map;
    ]
  in
  let rows =
    Parallel.map ?jobs
      (fun variant ->
        let cfg =
          {
            (Runner.calibrated_config Nvm.Config.desktop) with
            Runner.variant;
            iterations;
            workload = Runner.Ycsb { preset; records };
          }
        in
        let r = run_config cfg in
        let pcts =
          Report.percentiles r.Runner.latencies_cycles
            [ 0.5; 0.95; 0.99; 0.999 ]
        in
        let pct q =
          match List.assoc_opt q pcts with
          | Some v -> string_of_int v
          | None -> "-"
        in
        [
          Runner.variant_to_string variant;
          Printf.sprintf "%.2f" r.Runner.miters_per_sec;
          pct 0.5;
          pct 0.95;
          pct 0.99;
          pct 0.999;
        ])
      variants
  in
  (preset, records, rows)

let render_ycsb (preset, records, rows) ppf =
  Format.fprintf ppf
    "YCSB-%s over %d Zipfian-accessed records (desktop, 8 threads):@.@."
    (Ycsb.preset_to_string preset)
    records;
  Report.table
    ~header:
      [ "variant"; "Miter/s"; "p50 (cy)"; "p95 (cy)"; "p99 (cy)"; "p999 (cy)" ]
    ~rows ppf
