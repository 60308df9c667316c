(* The quick simulation gate: a table of cells.  Each has a name, the section of the snapshot it
   sits in ("cells" or "ab", the grouping BENCH_1..9 used), and a run
   that returns the cell's fields and its checks.  Every field is a pure
   function of the cell's parameters — simulated cycles, step counts,
   psync rates, hit rates, verdict counts — so the snapshot is
   byte-identical across runs, hosts and --jobs, and runtest diffs it
   against the committed bench/baseline.json.  Host time belongs to
   benchmark/, which samples it repeatedly and reports the spread; the
   paper's tables come from the tsp subcommands (table1, sweeps, ycsb,
   faults).

   A check that fails, or a run that cannot produce its fields, fails
   the bench.  The checks are the identities the snapshot cannot show
   by itself: an observer (history recorder, tracer) leaves the
   simulated cycles of the run it watches unchanged, a crash on one
   shard leaves the others untouched, recovery modes leave identical
   heap images, results do not depend on the job count, and the
   allocation-free paths stay allocation-free. *)

type field = Int of int | Float of float * int  (* value, decimals *)
type section = Cells | Ab

type cell = {
  name : string;
  section : section;
  run : unit -> (string * field) list * (string * bool) list;
}

let normalize_key s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' -> c
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | _ -> '_')
    s

(* Minor-heap words per operation while running [f].  The
   [Gc.minor_words] calls themselves box a float or two; the guards'
   per-op thresholds absorb that constant, not a per-op leak. *)
let words_per_op ~ops f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, (Gc.minor_words () -. w0) /. float_of_int ops)

(* The hot path in isolation: one simulated thread hammering the device
   through the scheduler, every uncontended charge taken against the
   scheduler's quantum. *)
let hot_path_loop ~ops =
  let cfg = Nvm.Config.with_region_size Nvm.Config.desktop (1024 * 1024) in
  let pmem = Nvm.Pmem.create cfg in
  let sched = Sched.Scheduler.create ~seed:7 ~cost_jitter:3 () in
  ignore
    (Sched.Scheduler.spawn sched ~name:"hot" (fun () ->
         for i = 1 to ops do
           let addr = i * 8 land 0xFFF8 in
           Nvm.Pmem.store_int pmem addr i;
           ignore (Nvm.Pmem.load_int pmem addr : int);
           if i land 255 = 0 then begin
             Nvm.Pmem.flush pmem addr;
             Nvm.Pmem.fence pmem
           end
         done)
      : int);
  Nvm.Pmem.set_step_hook pmem (fun ~cost -> Sched.Scheduler.step sched ~cost);
  Nvm.Pmem.set_quantum pmem (Sched.Scheduler.quantum_handle sched);
  (match Sched.Scheduler.run sched with
  | Sched.Scheduler.Completed -> ()
  | _ -> failwith "hot-path loop did not complete");
  (Sched.Scheduler.elapsed_cycles sched, Sched.Scheduler.total_steps sched)

(* The memory hierarchy alone: a load/store/periodic-cas loop against
   the device with no scheduler attached, so every nanosecond is cache
   bookkeeping plus the byte images.  Simulated cycles accumulate on the
   stats clock. *)
let raw_loadstore_loop ~ops =
  let cfg = Nvm.Config.with_region_size Nvm.Config.desktop (1024 * 1024) in
  let pmem = Nvm.Pmem.create cfg in
  let clock0 = (Nvm.Pmem.stats pmem).Nvm.Stats.clock in
  let acc = ref 0 in
  for i = 1 to ops do
    let addr = i * 8 land 0xFFF8 in
    Nvm.Pmem.store_int pmem addr i;
    acc := !acc + Nvm.Pmem.load_int pmem addr;
    if i land 1023 = 0 then
      ignore (Nvm.Pmem.cas_int pmem addr ~expected:i ~desired:(i + 1) : bool)
  done;
  ignore !acc;
  (Nvm.Pmem.stats pmem).Nvm.Stats.clock - clock0

module R = Workload.Runner
module M = Workload.Machine
module RS = Workload.Recovery_scaling
module FR = Workload.Frontier
module FI = Workload.Fault_injector
module Serve = Service.Serve

let quick_table1_config platform variant =
  {
    (R.calibrated_config platform) with
    R.variant;
    iterations = 150;
    workload = R.Counters { h_keys = 2048; preload = true };
    n_buckets = 1024;
    log_mib = 2;
  }

(* The single-thread hot-path workload. *)
let hot1_config =
  {
    (R.calibrated_config Nvm.Config.desktop) with
    R.variant = R.Mutex_map Atlas.Mode.Log_only;
    threads = 1;
    iterations = 4000;
    workload = R.Counters { h_keys = 2048; preload = true };
    n_buckets = 1024;
    log_mib = 2;
  }

(* The config the observer cells watch. *)
let observed_config =
  {
    (R.calibrated_config Nvm.Config.desktop) with
    R.variant = R.Mutex_map Atlas.Mode.Log_only;
    threads = 2;
    iterations = 800;
    workload = R.Counters { h_keys = 1024; preload = true };
    n_buckets = 1024;
    log_mib = 2;
  }

let runner_cell ~name config =
  let run () =
    let r = R.run config in
    ( [
        ("sim_cycles", Int r.R.elapsed_cycles);
        ("total_steps", Int r.R.total_steps);
        ("hit_rate", Float (Nvm.Stats.hit_rate r.R.device_stats, 4));
      ],
      [
        ( Fmt.str "consistent (seed %d): %a" config.R.seed Workload.Invariant.pp
            r.R.invariants,
          R.consistent r );
      ] )
  in
  { name = normalize_key name; section = Cells; run }

let table1_cells =
  List.concat_map
    (fun (pname, platform) ->
      List.map
        (fun variant ->
          runner_cell
            ~name:
              (Printf.sprintf "table1_%s_%s" pname (R.variant_to_string variant))
            (quick_table1_config platform variant))
        Workload.Table1.variants)
    [ ("desktop", Nvm.Config.desktop); ("server", Nvm.Config.server) ]

(* The Table 1 cells run with cost jitter 3, where two threads rarely
   share a clock.  With jitter off, eight threads on identical costs tie
   constantly, and every tie the scheduler breaks is an RNG draw that
   any shortcut past its pick must reproduce. *)
let contended_nojitter_cell =
  runner_cell ~name:"contended_nonblocking_8t_nojitter"
    {
      (quick_table1_config Nvm.Config.desktop R.Nonblocking_map) with
      R.cost_jitter = 0;
      iterations = 300;
    }

let raw_ops = 2_000_000

let raw_cell =
  let run () =
    let cycles, words =
      words_per_op ~ops:raw_ops (fun () -> raw_loadstore_loop ~ops:raw_ops)
    in
    ( [ ("sim_cycles", Int cycles); ("ops", Int raw_ops) ],
      [
        ( Printf.sprintf "allocation-free (%.4f minor words/op)" words,
          words <= 0.01 );
      ] )
  in
  { name = "hot_path_loadstore_raw"; section = Cells; run }

(* The scheduler and device on the hot loop; its sim cycles and step
   count were first recorded before quanta existed. *)
let qb_ops = 400_000

let quantum_batching_cell =
  let run () =
    let (cycles, steps), words =
      words_per_op ~ops:qb_ops (fun () -> hot_path_loop ~ops:qb_ops)
    in
    ( [ ("sim_cycles", Int cycles); ("total_steps", Int steps) ],
      [
        ( Printf.sprintf "no per-op allocation under quanta (%.4f minor words/op)"
            words,
          words <= 0.05 );
      ] )
  in
  { name = "quantum_batching"; section = Ab; run }

(* Recovery at scale (E22): one deterministic crashed heap recovered
   eagerly (per-word costed cache simulation), with the streamed
   parallel engine and incrementally.  Incremental mode's outage is the
   availability headline: near-constant while full collections grow
   linearly with the population. *)
let rs_cell ?(variant = R.Mutex_map Atlas.Mode.Log_only) ~objects ~mode () =
  RS.run_cell ~variant ~objects ~mode ~seed:29 ~touches:48 ()

let rs_curve objects =
  lazy
    ( rs_cell ~objects ~mode:M.Eager (),
      rs_cell ~objects ~mode:(M.Parallel_gc 2) (),
      rs_cell ~objects ~mode:M.Incremental_gc () )

let rs_20k = rs_curve 20_000
let rs_60k = rs_curve 60_000

let rs_big =
  lazy
    ( rs_cell ~objects:1_000_000 ~mode:M.Eager (),
      rs_cell ~objects:1_000_000 ~mode:(M.Parallel_gc 2) () )

(* A curve's checks are [RS.violations] over all its cells: audits, image
   identity across modes, jobs identity, the incremental outage. *)
let obeys cells = List.map (fun msg -> (msg, false)) (RS.violations cells)

let recovery_cells k curve =
  let cell mode pick =
    let run () =
      let ((eager, par, inc) as modes) = Lazy.force curve in
      let c = pick modes in
      ( [
          ("sim_cycles", Int c.RS.outage_cycles);
          ("background_cycles", Int c.RS.background_cycles);
        ],
        obeys [ eager; par; inc ] )
    in
    { name = Printf.sprintf "recovery_%s_%dk" mode k; section = Cells; run }
  in
  [
    cell "eager" (fun (e, _, _) -> e);
    cell "parallel" (fun (_, p, _) -> p);
    cell "incremental" (fun (_, _, i) -> i);
  ]

(* The curves above recover hash maps, whose eager DFS order is the
   bucket table's; these two pin the skip-node and B-tree-node orders. *)
let eager_20k_cell name variant =
  let run () =
    let c = rs_cell ~variant ~objects:20_000 ~mode:M.Eager () in
    ([ ("sim_cycles", Int c.RS.outage_cycles) ], obeys [ c ])
  in
  { name; section = Cells; run }

let big_cell name pick =
  let run () =
    let ((eager, par) as big) = Lazy.force rs_big in
    ( [ ("sim_cycles", Int (pick big).RS.outage_cycles) ],
      obeys [ eager; par ] )
  in
  { name; section = Cells; run }

let recovery_scaling_cell =
  let run () =
    let eager, par = Lazy.force rs_big in
    let _, par2, _ = Lazy.force rs_20k in
    let _, _, inc60 = Lazy.force rs_60k in
    let par1 = rs_cell ~objects:20_000 ~mode:(M.Parallel_gc 1) () in
    ( [
        ("sim_cycles", Int eager.RS.outage_cycles);
        ("parallel_sim_cycles", Int par.RS.outage_cycles);
        ("objects", Int eager.RS.objects);
        ("incremental_outage_cycles", Int inc60.RS.outage_cycles);
        ("incremental_background_cycles", Int inc60.RS.background_cycles);
      ],
      obeys [ par1; par2 ] )
  in
  { name = "recovery_scaling"; section = Ab; run }

(* The observer pair: one full workload run watched by the history
   recorder, one by the event tracer, each against the same run with no
   observer.  Neither observer draws randomness or charges cycles. *)
let unobserved = lazy (R.run observed_config)

let unperturbed (r : R.result) =
  let base = (Lazy.force unobserved).R.elapsed_cycles in
  ( Printf.sprintf "sim cycles unchanged by the observer (%d vs %d)"
      r.R.elapsed_cycles base,
    r.R.elapsed_cycles = base )

let history_recording_cell =
  let run () =
    let recorder = ref None in
    let instrument sched ops =
      let h = Check.History.create ~sched ~capacity:8192 () in
      recorder := Some h;
      Check.History.wrap h ops
    in
    let r = R.run { observed_config with R.instrument = Some instrument } in
    let recorded =
      match !recorder with
      | Some h -> Check.History.length h
      | None -> failwith "history instrument hook never ran"
    in
    ( [ ("sim_cycles", Int r.R.elapsed_cycles); ("ops_recorded", Int recorded) ],
      [ unperturbed r ] )
  in
  { name = "history_recording"; section = Ab; run }

let traced =
  lazy
    (let tracer = Obs.Tracer.create ~ring_cap:65536 () in
     let r = R.run { observed_config with R.tracer = Some tracer } in
     (r, Obs.Tracer.emitted tracer))

let trace_recording_cell =
  let run () =
    let r, emitted = Lazy.force traced in
    ( [
        ("sim_cycles", Int r.R.elapsed_cycles);
        ("events_emitted", Int emitted);
      ],
      [ unperturbed r ] )
  in
  { name = "trace_recording"; section = Ab; run }

(* [Obs.Hist] sits on two hot paths — {!Obs.Tracer.emit} feeds the
   dirty-exposure histogram, and the Serve latency sink keeps
   log-bucketed histograms — so the traced run above is also the
   histogram's sim-cycle identity witness.  This cell checks the add
   loop itself. *)
let hi_adds = 2_000_000

let hist_cell =
  let run () =
    let h = Obs.Hist.create () in
    let (), words =
      words_per_op ~ops:hi_adds (fun () ->
          for i = 1 to hi_adds do
            Obs.Hist.add h (i * 2654435761 land 0xFFFFF)
          done)
    in
    let r, _ = Lazy.force traced in
    ( [
        ("sim_cycles", Int r.R.elapsed_cycles);
        ("adds", Int hi_adds);
        ("p50", Int (Obs.Hist.quantile h 0.5));
        ("p99", Int (Obs.Hist.quantile h 0.99));
        ("p999", Int (Obs.Hist.quantile h 0.999));
      ],
      [
        ( Printf.sprintf "Hist.add allocation-free (%.4f minor words/add)" words,
          words <= 0.01 );
        ("no sample dropped", Obs.Hist.count h = hi_adds);
      ] )
  in
  { name = "hist_instrumentation"; section = Ab; run }

(* The cells that fan out over [jobs]. *)

(* An exhaustive crash-window fault campaign on the hot-path workload. *)
let crash_campaign_cell ~jobs =
  let run () =
    let base =
      {
        hot1_config with
        R.threads = 2;
        iterations = 300;
        workload = R.Counters { h_keys = 1024; preload = true };
      }
    in
    let spec =
      {
        (FI.default_spec base) with
        FI.exhaustive =
          Some { FI.from_step = 30_000; window = 1_500; stride = 150 };
      }
    in
    let s = FI.run ~jobs spec in
    ( [
        ("crash_points", Int s.FI.total);
        ("crashes", Int s.FI.crashes);
        ("violations", Int s.FI.violations);
      ],
      [ ("no unexpected violations", s.FI.unexpected_violations = 0) ] )
  in
  { name = "quantum_crash_campaign"; section = Ab; run }

(* The sharded KV service, one shard crashed and recovered online vs
   nobody crashed.  Shards are independent simulation cells behind a
   deterministic router, so the survivors' witnesses (request fates,
   step counts, device and scheduler clocks) must match across the two
   runs. *)
let shard_service_cell ~jobs =
  let config =
    {
      Serve.smoke_config with
      Serve.shards = 3;
      seed = 23;
      keys = 2048;
      requests = 1200;
      rate_per_mcycle = 250.;
      crash_shard = Some 1;
      n_buckets = Some 512;
      windows = 6;
    }
  in
  let witness (s : Serve.shard_report) =
    Serve.(s.served, s.shed, s.timed_out, s.steps, s.sim_cycles, s.elapsed_cycles)
  in
  let run () =
    let crashed = Serve.run ~jobs config in
    let quiet = Serve.run ~jobs { config with Serve.crash_shard = None } in
    let victim = crashed.Serve.shards.(1) in
    let rr =
      match victim.Serve.recovery with
      | Some r -> r
      | None -> failwith "service victim has no recovery report"
    in
    let total f =
      Array.fold_left (fun a s -> a + f s) 0 crashed.Serve.shards
    in
    ( [
        ("sim_cycles", Int victim.Serve.elapsed_cycles);
        ("t_down", Int rr.Serve.t_down);
        ("t_up", Int rr.Serve.t_up);
        ("recovery_cycles", Int rr.Serve.recovery_cycles);
        ("rescued_lines", Int rr.Serve.rescued_lines);
        ("served", Int (total (fun s -> s.Serve.served)));
        ("shed", Int (total (fun s -> s.Serve.shed)));
        ("timed_out", Int (total (fun s -> s.Serve.timed_out)));
      ],
      [
        ( "survivors identical to the crash-free run",
          List.for_all
            (fun i ->
              witness crashed.Serve.shards.(i) = witness quiet.Serve.shards.(i))
            [ 0; 2 ] );
        ( Printf.sprintf "victim outcome %S" victim.Serve.outcome,
          String.equal victim.Serve.outcome "crashed+recovered" );
        ( Printf.sprintf "victim durably linearizable (%s)" rr.Serve.dl_note,
          match rr.Serve.dl with
          | Some v -> Check.Dl.is_explained v
          | None -> false );
      ] )
  in
  { name = "shard_service"; section = Ab; run }

(* The fence-complexity frontier (E23): eager log-flush fortification,
   the plain lock-free skip list and its NVTraverse transformation on
   one identical counter workload, computed under --jobs 1 and under
   the requested fan-out. *)
let ff_variants =
  [ R.Mutex_map Atlas.Mode.Log_flush; R.Nonblocking_map; R.Nvtraverse_map ]

let ff_find rows v =
  match FR.find rows v with
  | Some r -> r
  | None -> failwith "frontier row missing"

let frontier_cells ~jobs =
  let run jobs =
    FR.run ~jobs ~variants:ff_variants ~platform:Nvm.Config.desktop ()
  in
  let rows = lazy (run 1, run jobs) in
  let row_cell v =
    let run () =
      let r = ff_find (fst (Lazy.force rows)) v in
      ( [
          ("sim_cycles", Int r.FR.elapsed_cycles);
          ("completed_ops", Int r.FR.completed_ops);
          ("flushes_per_op", Float (r.FR.flushes_per_op, 3));
          ("fences_per_op", Float (r.FR.fences_per_op, 3));
          ("appends_per_op", Float (r.FR.appends_per_op, 3));
        ],
        [ ("durably linearizable", r.FR.dl_explained) ] )
    in
    {
      name = "frontier_" ^ normalize_key (M.variant_to_cli_string v);
      section = Cells;
      run;
    }
  in
  let summary_run () =
    let rows1, rows_n = Lazy.force rows in
    let nvt = ff_find rows1 R.Nvtraverse_map in
    let lf = ff_find rows1 (R.Mutex_map Atlas.Mode.Log_flush) in
    let nb = ff_find rows1 R.Nonblocking_map in
    let cycles =
      List.fold_left (fun a (r : FR.row) -> a + r.FR.elapsed_cycles) 0 rows1
    in
    ( [
        ("sim_cycles", Int cycles);
        ("nvtraverse_flushes_per_op", Float (nvt.FR.flushes_per_op, 3));
        ("logflush_flushes_per_op", Float (lf.FR.flushes_per_op, 3));
        ("nonblocking_flushes_per_op", Float (nb.FR.flushes_per_op, 3));
        ("nvtraverse_miters", Float (nvt.FR.miters, 2));
        ("logflush_miters", Float (lf.FR.miters, 2));
      ],
      [
        (Printf.sprintf "rows identical at --jobs 1 and %d" jobs, rows1 = rows_n);
        ("NVTraverse beats log-flush", FR.nvtraverse_beats_logflush rows1);
      ] )
  in
  ( List.map row_cell ff_variants,
    { name = "fence_frontier"; section = Ab; run = summary_run } )

(* The table, in snapshot order.  Cells sharing a run (the recovery
   curves, the traced run, the frontier rows) share it through a lazy
   value, so each simulation runs once. *)
let quick_cells ~jobs =
  let frontier_rows, fence_frontier = frontier_cells ~jobs in
  table1_cells
  @ [
      contended_nojitter_cell;
      runner_cell ~name:"hot_path_log_only_1thread" hot1_config;
    ]
  @ recovery_cells 20 rs_20k
  @ recovery_cells 60 rs_60k
  @ [
      eager_20k_cell "recovery_eager_skiplist_20k" R.Nonblocking_map;
      eager_20k_cell "recovery_eager_btree_20k" (R.Mutex_btree Atlas.Mode.Log_only);
    ]
  @ [
      big_cell "recovery_eager_1000k" fst;
      big_cell "recovery_parallel_1000k" snd;
    ]
  @ frontier_rows
  @ [
      raw_cell;
      quantum_batching_cell;
      history_recording_cell;
      trace_recording_cell;
      crash_campaign_cell ~jobs;
      shard_service_cell ~jobs;
      recovery_scaling_cell;
      fence_frontier;
      hist_cell;
    ]

let run_quick ~jobs ~out =
  let jobs =
    match jobs with Some j -> j | None -> Workload.Parallel.default_jobs ()
  in
  let results =
    List.map
      (fun c ->
        let fail msg = Fmt.failwith "quick bench: %s: %s" c.name msg in
        let fields, checks = try c.run () with Failure msg -> fail msg in
        List.iter (fun (what, ok) -> if not ok then fail what) checks;
        (c, fields))
      (quick_cells ~jobs)
  in
  let module J = Obs.Json in
  let j = J.create () in
  J.obj_open j;
  J.key j "schema";
  J.str j "tsp-bench-v3";
  List.iter
    (fun (section, key) ->
      J.line_break j;
      J.key j key;
      J.obj_open j;
      List.iter
        (fun (c, fields) ->
          if c.section = section then begin
            J.line_break j;
            J.key j c.name;
            J.obj_open j;
            List.iter
              (fun (k, v) ->
                J.key j k;
                match v with
                | Int i -> J.int j i
                | Float (f, dp) -> J.float ~dp j f)
              fields;
            J.obj_close j
          end)
        results;
      J.obj_close j)
    [ (Cells, "cells"); (Ab, "ab") ];
  J.obj_close j;
  let oc = open_out_bin out in
  J.to_channel oc j;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "quick bench: %d cells, every check passed -> %s@."
    (List.length results) out

(* --- Entry point --- *)

let usage () =
  prerr_endline
    "usage: bench [--jobs N|auto] [--out FILE]\n\
     \  runs every quick cell and its checks, writes the deterministic\n\
     \  JSON snapshot\n\
     \  --jobs N|auto   domains for the cells that fan out inside\n\
     \                  themselves (crash campaign, shard service,\n\
     \                  frontier); the cells run one after another.\n\
     \                  auto (the default) is the host's recommended\n\
     \                  domain count\n\
     \  --out FILE      where to write the JSON (default bench_quick.json)";
  exit 2

let () =
  let jobs = ref None and out = ref "bench_quick.json" in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: "auto" :: rest -> jobs := None; parse rest
    | "--jobs" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := Some n; parse rest
        | _ -> usage ()
      end
    | "--out" :: f :: rest -> out := f; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  run_quick ~jobs:!jobs ~out:!out
