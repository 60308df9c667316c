(* The four workloads, built from the seed alone.

   A workload is a list of rounds and a round is a list of units; every
   unit is an independent call into the simulator's public API whose
   outputs are checked and digested.  The timed loop always runs whole
   rounds, so every sample mixes the unit kinds in the same proportion
   however long the run is.  Each unit has an untraced form (what the
   end-to-end numbers time) and a traced form that reaches the same
   outputs through the layers' public pieces, timing each call as a span
   and counting device, scheduler and log events with an [Obs.Tracer]. *)

module Runner = Workload.Runner
module Machine = Workload.Machine
module FI = Workload.Fault_injector
module CC = Workload.Check_campaign
module RS = Workload.Recovery_scaling
module Serve = Service.Serve
module Incremental = Pheap.Heap_gc.Incremental

(* [cross] must agree across the units of a round: recovery rounds put
   the recovered image hash there, every other unit 0. *)
type outcome = { digest : int; ok : bool; cross : int }

let failed = { digest = 0; ok = false; cross = 0 }

(* Traced-run state: the spans, and event counts keyed by layer that are
   averaged per occurrence of the call that produced them (per recovery
   replay, per DL replay, per service run). *)
type ctx = { spans : Spans.t; tally : (string, int) Hashtbl.t }

let add ctx key v =
  Hashtbl.replace ctx.tally key (v + Option.value (Hashtbl.find_opt ctx.tally key) ~default:0)

type unit_ = {
  run : unit -> outcome;
  traced : ctx -> outcome * (string * int) list;
      (** the same outputs, plus this unit's event counts *)
}

type t = {
  rounds : unit_ array array;
  round_s : float;
      (** wall seconds of one round on the reference host (README.md): a
          run times [seconds / round_s] rounds, so it does the same work
          on every commit and lasts about [seconds] there *)
  machines : int;  (** simulated devices each unit creates *)
  create_platform : Nvm.Config.t;  (** the device platform those units create *)
}

(* At most [nproc] domains, and never more than two. *)
let jobs = min 2 (Domain.recommended_domain_count ())

(* The smoke preset shrinks every device region: zeroing the two 64 MiB
   images of a full-size device is most of a small unit's cost. *)
let shrink p = Nvm.Config.with_region_size p (8 lsl 20)

(* --- digests --------------------------------------------------------- *)

let fnv h x = (h lxor x) * 0x100000001b3 land max_int
let fnv_basis = 0x3bf29ce484222325
let fnv_ints = List.fold_left fnv fnv_basis
let fnv_string h s = String.fold_left (fun h c -> fnv h (Char.code c)) h s
let of_bool b = if b then 1 else 0
let verdict_string v = Fmt.str "%a" Atlas.Recovery.pp_verdict v

(* --- tracing helpers ------------------------------------------------- *)

(* The counts are exact however small the ring: they accumulate at emit
   time. *)
let tracer () = Obs.Tracer.create ~ring_cap:8 ()

let device_counts (p : Nvm.Config.t) tracers =
  let sum f = List.fold_left (fun a tr -> a + f tr) 0 tracers in
  let count code = sum (fun tr -> Obs.Tracer.count tr code) in
  let cycles code = sum (fun tr -> Obs.Tracer.cycles_of tr code) in
  let open Obs.Event in
  let loads = count load and stores = count store in
  (* A load or store event carries the cost it was charged, which is the
     hit or the miss price, so the miss counts follow from the sums. *)
  let load_misses = (cycles load - (loads * p.load_hit)) / (p.load_miss - p.load_hit) in
  let store_misses = (cycles store - (stores * p.store_cost)) / p.store_miss_extra in
  [
    ("device_ops", loads + stores + count cas + count flush + count fence);
    ("flushes", count flush);
    ("accesses", loads + stores);
    ("hits", loads + stores - load_misses - store_misses);
    ("ctx_switches", count ctx_switch);
    ("log_appends", count log_append);
    ("ocs_commits", count ocs_commit);
  ]

type hooked = { mutable sched : Sched.Scheduler.t option; mutable ops : int }

(* The [Runner.config.instrument] hook of a traced unit: time every map
   operation as a leaf span on its simulated thread's track, count the
   operations, and keep the scheduler for its step count.  It reads the
   host clock only, so the simulation is untouched. *)
let timed_ops ctx seen wrap sched ops =
  seen.sched <- Some sched;
  let (ops : Tsp_maps.Map_intf.ops) = wrap sched ops in
  let name = Spans.intern ctx.spans Spans.op_name in
  let timed tid f =
    let start = Clock.now_ns () in
    let r = f () in
    Spans.record ctx.spans ~name ~track:(tid + 1) ~start;
    seen.ops <- seen.ops + 1;
    r
  in
  {
    ops with
    Tsp_maps.Map_intf.set =
      (fun ~tid ~key ~value -> timed tid (fun () -> ops.set ~tid ~key ~value));
    get = (fun ~tid ~key -> timed tid (fun () -> ops.get ~tid ~key));
    incr = (fun ~tid ~key ~by -> timed tid (fun () -> ops.incr ~tid ~key ~by));
    remove = (fun ~tid ~key -> timed tid (fun () -> ops.remove ~tid ~key));
  }

let traced_config ctx ?(wrap = fun _ ops -> ops) config =
  let tr = tracer () and seen = { sched = None; ops = 0 } in
  ( { config with Runner.tracer = Some tr; instrument = Some (timed_ops ctx seen wrap) },
    fun () ->
      device_counts config.Runner.platform [ tr ]
      @ [
          ( "steps",
            match seen.sched with Some s -> Sched.Scheduler.total_steps s | None -> 0 );
          ("map_ops", seen.ops);
        ] )

(* --- table1_steady --------------------------------------------------- *)

let runner_outcome (r : Runner.result) =
  let h = fnv_ints [ r.elapsed_cycles; r.total_steps; r.iterations_done ] in
  let h = Array.fold_left fnv h (Nvm.Stats.cycle_totals r.device_stats) in
  let h = List.fold_left (fun h (k, v) -> fnv (fnv h k) (Int64.to_int v)) h r.entries in
  { digest = h; ok = Runner.consistent r; cross = 0 }

let runner_unit config =
  {
    run = (fun () -> runner_outcome (Runner.run config));
    traced =
      (fun ctx ->
        let traced, counts = traced_config ctx config in
        let r = Spans.span ctx.spans "workload.runner_run" (fun () -> Runner.run traced) in
        (runner_outcome r, counts ()));
  }

(* Table 1's eight cells (four variants x two platforms) at a working set
   larger than the simulated caches, crash-free; one round per seed. *)
let table1 ~seed ~smoke =
  let round i =
    List.concat_map
      (fun platform ->
        List.map
          (fun variant ->
            let platform = if smoke then shrink platform else platform in
            runner_unit
              {
                (Runner.calibrated_config platform) with
                Runner.variant;
                threads = (if smoke then 2 else 8);
                iterations = (if smoke then 50 else 2500);
                seed = seed + (31 * i);
                workload = Counters { h_keys = (if smoke then 512 else 65_536); preload = true };
                log_mib = (if smoke then 1 else 8);
              })
          Workload.Table1.variants)
      [ Nvm.Config.desktop; Nvm.Config.server ]
    |> Array.of_list
  in
  {
    rounds = Array.init (if smoke then 1 else 2) round;
    round_s = 10.;
    machines = 1;
    create_platform = (if smoke then shrink Nvm.Config.desktop else Nvm.Config.desktop);
  }

(* --- crash_campaign -------------------------------------------------- *)

(* The shape of [tsp faults --smoke] and [tsp check --smoke]: a 32 KiB
   cache (so crash images mix old and new lines), 4 threads, 200
   iterations, 256 keys, a 1 MiB log. *)
let crash_base ~smoke =
  let platform = { Nvm.Config.desktop with Nvm.Config.cache_lines = 512 } in
  {
    (Runner.calibrated_config (if smoke then shrink platform else platform)) with
    Runner.iterations = 200;
    threads = 4;
    workload = Counters { h_keys = 256; preload = true };
    n_buckets = 512;
    log_mib = 1;
  }

(* Fault-model label without its parameter, usable in a metric name. *)
let leg fault =
  let l = FI.model_label fault in
  match String.index_opt l ':' with Some i -> String.sub l 0 i | None -> l

let fault_outcome (o : FI.run_outcome) =
  let h =
    fnv_ints
      [
        of_bool o.crashed; of_bool o.consistent; of_bool o.graceful; of_bool o.violation;
        of_bool o.expected; o.iterations_done; o.rolled_back; o.cascaded; o.gc_freed;
      ]
  in
  let h = Array.fold_left fnv h o.cycle_totals in
  let h = List.fold_left fnv_string h o.errors in
  let h = fnv_string h (Option.fold ~none:"-" ~some:verdict_string o.recovery_verdict) in
  { digest = h; ok = o.graceful && not (o.violation && not o.expected); cross = 0 }

let fault_unit base ~fault ~seed ~crash_step =
  let spec = { (FI.default_spec base) with FI.fault_models = [ fault ] } in
  {
    run = (fun () -> fault_outcome (FI.one spec ~fault ~seed ~crash_step));
    traced =
      (fun ctx ->
        let traced, counts = traced_config ctx base in
        let o =
          Spans.span ctx.spans ("workload.fault_one." ^ leg fault) (fun () ->
              FI.one { spec with FI.base = traced } ~fault ~seed ~crash_step)
        in
        (fault_outcome o, counts ()));
  }

let dl_outcome ~crashed ~recorded ~completed ~pending ~dl ~verdict ~cycle_totals =
  let capped = match dl with Check.Dl.Explained s | Check.Dl.Violation (s, _) -> s.capped in
  let explained = Check.Dl.is_explained dl in
  let h = fnv_ints [ of_bool crashed; recorded; completed; pending; of_bool explained; capped ] in
  let h = Array.fold_left fnv h cycle_totals in
  let h = fnv_string h (Option.fold ~none:"-" ~some:verdict_string verdict) in
  { digest = h; ok = explained; cross = 0 }

let crashed (r : Runner.result) = match r.outcome with Runner.Crashed _ -> true | _ -> false

(* A one-point DL check.  Untraced it is [Check_campaign.run]; traced it
   is replayed as [Runner.run] with [History.wrap] interposed, then
   [Check.Dl.check], which must reach the campaign's verdict. *)
let dl_unit config ~crash_step =
  {
    run =
      (fun () ->
        let spec =
          { (CC.default_spec config) with CC.from_step = crash_step; window = 1; stride = 1 }
        in
        match (CC.run ~jobs:1 spec).CC.points with
        | [ p ] ->
            dl_outcome ~crashed:p.crashed ~recorded:p.ops_recorded ~completed:p.ops_completed
              ~pending:p.ops_pending ~dl:p.dl ~verdict:p.recovery_verdict
              ~cycle_totals:p.cycle_totals
        | _ -> failed);
    traced =
      (fun ctx ->
        let history = ref None in
        let wrap sched ops =
          let h = Check.History.create ~sched () in
          history := Some h;
          Check.History.wrap h ops
        in
        let config = { config with Runner.crash_at_step = Some crash_step } in
        let traced, counts = traced_config ctx ~wrap config in
        let r = Spans.span ctx.spans "workload.runner_run" (fun () -> Runner.run traced) in
        let outcome =
          match (r.outcome, !history) with
          | Runner.Deadlocked _, _ | _, None -> failed
          | (Runner.Completed | Runner.Crashed _), Some h ->
              let initial = CC.initial_entries config in
              let dl =
                Spans.span ctx.spans "check.dl_check" (fun () ->
                    Check.Dl.check ~initial ~history:h ~recovered:r.entries)
              in
              let capped = match dl with Explained s | Violation (s, _) -> s.capped in
              add ctx "check.replays" 1;
              add ctx "check.history_ops" (Check.History.length h);
              add ctx "check.capped_keys" capped;
              dl_outcome ~crashed:(crashed r) ~recorded:(Check.History.length h)
                ~completed:(Check.History.completed h) ~pending:(Check.History.pending h) ~dl
                ~verdict:
                  (Option.map (fun (c : Runner.crash_report) -> c.recovery_verdict) r.crash)
                ~cycle_totals:(Nvm.Stats.cycle_totals r.device_stats)
        in
        (outcome, counts ()));
  }

let fault_variants =
  [ Runner.Mutex_map Atlas.Mode.Log_only; Runner.Nvtraverse_map; Runner.Delayfree_map ]

let dl_variants =
  [
    Runner.Nonblocking_map; Runner.Mutex_map Atlas.Mode.Log_only; Runner.Nvtraverse_map;
    Runner.Delayfree_map;
  ]

(* One crash point per (variant, fault leg) and per DL variant.  The
   points are those [tsp faults --smoke] and [tsp check --smoke] sweep,
   with their pinned run seeds (99 and 11): a window just after preload
   and a mid-workload one (the recoverable-CAS table finishes near step
   22k, so its mid window sits earlier).  The test suite checks every one
   of them at every commit, so a unit fails only if the benchmark's own
   checks do; the seed picks which points run.  Off this grid other run
   seeds reach a lost NVTraverse increment (README.md). *)
let crash_round rng ~smoke ~early ~fault_variants ~dl_variants =
  let base = crash_base ~smoke in
  let point variant ~early_window ~mid_stride ~early_stride =
    let lo, window, stride =
      if early then (400, early_window, early_stride)
      else ((match variant with Runner.Delayfree_map -> 18_000 | _ -> 40_000), 400, mid_stride)
    in
    lo + (stride * Random.State.int rng (window / stride))
  in
  List.concat_map
    (fun variant ->
      List.map
        (fun fault ->
          fault_unit { base with variant } ~fault ~seed:99
            ~crash_step:(point variant ~early_window:2000 ~early_stride:50 ~mid_stride:40))
        (None :: List.map Option.some Nvm.Fault_model.reference))
    fault_variants
  @ List.map
      (fun variant ->
        dl_unit { base with variant; seed = 11 }
          ~crash_step:(point variant ~early_window:1200 ~early_stride:100 ~mid_stride:100))
      dl_variants
  |> Array.of_list

let crash_campaign ~seed ~smoke =
  let rng = Random.State.make [| seed |] in
  {
    rounds =
      Array.init (if smoke then 1 else 8) (fun i ->
          crash_round rng ~smoke ~early:(i < 4) ~fault_variants ~dl_variants);
    round_s = 1.9;
    machines = 1;
    create_platform = (crash_base ~smoke).platform;
  }

(* --- recovery_scale -------------------------------------------------- *)

let recovery_variant = Machine.Mutex_map Atlas.Mode.Log_only

let recovery_outcome ~outage ~background ~touched ~phases ~gc ~verdict ~audit ~hash =
  let h = fnv_ints [ outage; background; touched; of_bool audit; hash ] in
  let h = List.fold_left (fun h (name, c) -> fnv (fnv_string h name) c) h phases in
  let h =
    match gc with
    | None -> fnv h (-1)
    | Some (s : Pheap.Heap_gc.stats) ->
        List.fold_left fnv h
          [
            s.live_objects; s.live_words; s.freed_objects; s.freed_words; s.coalesced_blocks;
            s.dangling_refs; s.mark_cycles; s.sweep_cycles;
          ]
  in
  { digest = fnv_string h verdict; ok = audit; cross = hash }

let mode_label = function
  | Machine.Eager -> "eager"
  | Machine.Parallel_gc _ -> "parallel"
  | Machine.Incremental_gc -> "incremental"

(* [Recovery_scaling.run_cell] replayed through its public pieces:
   populate, crash, recover, drain the incremental collection, hash the
   image.  Outage cycles, GC statistics and image hash must come out as
   the cell reports them. *)
let replay_recovery ctx ~spec ~objects ~mode ~seed ~touches =
  let tr = tracer () in
  let base = Option.value spec ~default:(RS.default_spec ~variant:recovery_variant ~seed) in
  let base = { base with Machine.tracer = Some tr } in
  let span name f = Spans.span ctx.spans name f in
  let m = span "tsp_maps.populate" (fun () -> Workload.Populate.build base ~objects ~seed) in
  let pmem = m.Machine.pmem in
  let stats = Nvm.Pmem.stats pmem in
  ignore
    (span "core.crash_execute" (fun () -> Machine.crash_execute m)
      : Tsp_core.Crash_executor.execution);
  let clock0 = stats.clock in
  let r = span ("workload.recover." ^ mode_label mode) (fun () -> Machine.recover ~mode m) in
  let outage = stats.clock - clock0 in
  let touched, background =
    match r.gc_pending with
    | Some inc ->
        span "pheap.gc_on_demand" (fun () ->
            for _ = 1 to touches do
              ignore (Incremental.on_demand inc : int)
            done);
        ignore (span "pheap.gc_advance" (fun () -> Incremental.advance inc ~budget:max_int) : int);
        let touched = Incremental.on_demand_count inc in
        let background = Incremental.total_cycles inc in
        ignore (span "pheap.gc_finish" (fun () -> Machine.finish_background_gc m));
        (touched, background)
    | None ->
        ignore (Machine.finish_background_gc m);
        (0, 0)
  in
  let hash =
    span "workload.image_hash" (fun () ->
        RS.image_hash pmem ~lo:0 ~hi:(Machine.log_base m.Machine.spec))
  in
  let phases =
    List.init Obs.Event.n_phases (fun p -> (Obs.Event.phase_name p, Obs.Tracer.phase_cycles tr p))
    |> List.filter (fun (_, c) -> c > 0)
  in
  Option.iter
    (fun (g : Pheap.Heap_gc.stats) ->
      add ctx "pheap.replays" 1;
      add ctx "pheap.live" g.live_objects;
      add ctx "pheap.freed" g.freed_objects)
    r.gc;
  ( recovery_outcome ~outage ~background ~touched ~phases ~gc:r.gc
      ~verdict:(verdict_string r.recovery_verdict) ~audit:r.heap_audit_ok ~hash,
    device_counts base.platform [ tr ] @ [ ("steps", 0); ("map_ops", objects) ] )

let recovery_spec ~seed ~smoke =
  if smoke then
    let s = RS.default_spec ~variant:recovery_variant ~seed in
    Some { s with Machine.platform = shrink s.platform; log_mib = 1 }
  else None

(* One round: the same populated heap recovered eagerly, with the
   parallel streamed engines, and incrementally. *)
let recovery_round ~seed ~smoke =
  let spec = recovery_spec ~seed ~smoke and objects = if smoke then 2_000 else 60_000 in
  List.map
    (fun mode ->
      {
        run =
          (fun () ->
            let c =
              RS.run_cell ~spec ~variant:recovery_variant ~objects ~mode ~seed ~touches:48 ()
            in
            recovery_outcome ~outage:c.outage_cycles ~background:c.background_cycles
              ~touched:c.on_demand_touches ~phases:c.phases ~gc:c.gc ~verdict:c.verdict
              ~audit:c.heap_audit_ok ~hash:c.image_hash);
        traced = (fun ctx -> replay_recovery ctx ~spec ~objects ~mode ~seed ~touches:48);
      })
    [ Machine.Eager; Machine.Parallel_gc jobs; Machine.Incremental_gc ]
  |> Array.of_list

let recovery_scale ~seed ~smoke =
  let objects = if smoke then 2_000 else 60_000 in
  let spec =
    Option.value (recovery_spec ~seed ~smoke)
      ~default:(RS.default_spec ~variant:recovery_variant ~seed)
  in
  {
    rounds =
      Array.init (if smoke then 1 else 16) (fun i ->
          recovery_round ~seed:((seed * 1009) + i) ~smoke);
    round_s = 1.1;
    machines = 1;
    create_platform = (Workload.Populate.sized_spec spec ~objects).platform;
  }

(* --- service_crash --------------------------------------------------- *)

(* YCSB-B at Zipf 0.99 over 4 shards; shard 1 crashes mid-traffic and
   recovers online. *)
let service_config ~seed ~smoke =
  {
    Serve.smoke_config with
    shards = 4;
    keys = (if smoke then 4096 else 65_536);
    requests = (if smoke then 2_000 else 40_000);
    seed;
  }

let serve_outcome (cfg : Serve.config) (r : Serve.report) =
  let victim = Option.map (fun v -> r.shards.(v)) cfg.crash_shard in
  let dl_ok =
    match victim with
    | Some { Serve.recovery = Some { dl = Some dl; _ }; _ } -> Check.Dl.is_explained dl
    | _ -> false
  in
  let conserved =
    Array.for_all
      (fun (s : Serve.shard_report) -> s.served + s.shed + s.timed_out = s.requests)
      r.shards
    && Array.fold_left (fun a (s : Serve.shard_report) -> a + s.requests) 0 r.shards
       = cfg.requests
  in
  let ok =
    dl_ok && conserved
    && Option.map (fun (v : Serve.shard_report) -> v.outcome) victim = Some "crashed+recovered"
    && Array.for_all (fun (s : Serve.shard_report) -> s.outcome <> "deadlocked") r.shards
  in
  { digest = fnv_string fnv_basis (Serve.render r); ok; cross = 0 }

let serve_run ctx ~name ~jobs cfg =
  let r = Spans.span ctx.spans name (fun () -> Serve.run ~jobs cfg) in
  add ctx "service.runs" 1;
  Array.iter
    (fun (s : Serve.shard_report) ->
      add ctx "service.steps" s.steps;
      Option.iter
        (fun (rr : Serve.recovery_report) ->
          add ctx "service.victim_recovery_cycles" rr.recovery_cycles)
        s.recovery)
    r.shards;
  r

(* One domain: with two, a stall of either vCPU holds the other at the
   shared minor-GC barrier, and the spread across seeds was twice as
   large.  The layer metric service.jobs2_speedup keeps the fan-out
   measured. *)
let serve_unit cfg =
  {
    run = (fun () -> serve_outcome cfg (Serve.run ~jobs:1 cfg));
    traced =
      (fun ctx ->
        let r = serve_run ctx ~name:"service.serve" ~jobs:1 { cfg with trace = true } in
        let shards = Array.to_list r.shards in
        let sum f = List.fold_left (fun a s -> a + f s) 0 shards in
        ( serve_outcome cfg r,
          device_counts cfg.platform
            (List.filter_map (fun (s : Serve.shard_report) -> s.tracer) shards)
          @ [ ("steps", sum (fun s -> s.steps)); ("map_ops", sum (fun s -> s.served)) ] ));
  }

let service_crash ~seed ~smoke =
  let cfg = service_config ~seed ~smoke in
  (* Mirrors Serve's per-shard region: buckets, generously sized entries,
     allocator slack and the undo log. *)
  let region =
    (Option.value cfg.n_buckets ~default:0 * 16)
    + (cfg.keys / cfg.shards * 256)
    + (1 lsl 20) + (cfg.log_mib lsl 20)
  in
  {
    rounds =
      Array.init (if smoke then 1 else 48) (fun i ->
          [| serve_unit (service_config ~seed:((seed * 1009) + i) ~smoke) |]);
    round_s = 0.3;
    (* the shards plus the baseline pre-run that finds the crash step *)
    machines = cfg.shards + 1;
    create_platform = Nvm.Config.with_region_size cfg.platform region;
  }

let all =
  [
    ("table1_steady", table1);
    ("crash_campaign", crash_campaign);
    ("recovery_scale", recovery_scale);
    ("service_crash", service_crash);
  ]

let names = List.map fst all
let make name ~seed ~smoke = (List.assoc name all) ~seed ~smoke
