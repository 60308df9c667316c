module Machine = Workload.Machine
module Key_space = Workload.Key_space
module Parallel = Workload.Parallel
module Report = Workload.Report
module Ycsb = Workload.Ycsb
module Scheduler = Sched.Scheduler
module History = Check.History
module Dl = Check.Dl
module Map_intf = Tsp_maps.Map_intf
module Heap_gc = Pheap.Heap_gc

let req_cycles = 600

type config = {
  platform : Nvm.Config.t;
  variant : Machine.variant;
  shards : int;
  seed : int;
  keys : int;
  requests : int;
  rate_per_mcycle : float;
  theta : float;
  preset : Ycsb.preset;
  crash_shard : int option;
  crash_at_step : int option;
  fault_model : Nvm.Fault_model.t option;
  recovery : Machine.recovery_mode;
  degraded : Degraded.t;
  log_mib : int;
  n_buckets : int option;
  trace : bool;
  windows : int;
}

let default_config =
  {
    platform = Nvm.Config.desktop;
    variant = Machine.Mutex_map Atlas.Mode.Log_only;
    shards = 8;
    seed = 1;
    keys = 1 lsl 20;
    requests = 40_000;
    rate_per_mcycle = 400.;
    theta = 0.99;
    preset = Ycsb.B;
    crash_shard = None;
    crash_at_step = None;
    fault_model = None;
    recovery = Machine.Eager;
    degraded = Degraded.default;
    log_mib = 4;
    n_buckets = None;
    trace = false;
    windows = 12;
  }

let smoke_config =
  {
    default_config with
    shards = 4;
    seed = 7;
    keys = 16_384;
    requests = 6_000;
    rate_per_mcycle = 300.;
    crash_shard = Some 1;
    log_mib = 1;
    n_buckets = Some 4096;
  }

type fate = Pending | Served | Shed | Timed_out

(* fate codes inside the cells: int arrays survive an abandoned fiber *)
let f_pending = 0
let f_served = 1
let f_shed = 2
let f_timed_out = 3

type recovery_report = {
  t_down : int;
  t_up : int;
  recovery_cycles : int;
  rescued_lines : int;
  fault : Nvm.Fault_model.t;
  background_gc_cycles : int;
  on_demand_recovered : int;
  recovery_verdict : Atlas.Recovery.verdict;
  dl : Dl.verdict option;
  dl_note : string;
  recovery_errors : string list;
}

type shard_report = {
  shard : int;
  requests : int;
  populated : int;
  served : int;
  shed : int;
  timed_out : int;
  retry_attempts : int;
  phase2_served : int;
  sim_cycles : int;
  elapsed_cycles : int;
  steps : int;
  outcome : string;
  recovery : recovery_report option;
  tracer : Obs.Tracer.t option;
}

type window = { w_start : int; w_end : int; total : int; ok : int; failed : int }

type latency_row = {
  l_shard : int;
  l_phase : string;
  samples : int;
  p50 : int;
  p99 : int;
  p999 : int;
  lat_hist : Obs.Hist.t;
}

type report = {
  config : config;
  horizon : int;
  shards : shard_report array;
  fates : fate array;
  latencies : int array;
  windows : window array;
  latency : latency_row list;
}

let validate (cfg : config) =
  if cfg.shards <= 0 then
    Fmt.invalid_arg "Serve: shard count %d must be positive" cfg.shards;
  if cfg.keys < cfg.shards then
    Fmt.invalid_arg "Serve: %d keys cannot cover %d shards" cfg.keys cfg.shards;
  if cfg.windows <= 0 then
    Fmt.invalid_arg "Serve: availability window count %d must be positive"
      cfg.windows;
  if cfg.log_mib <= 0 then
    Fmt.invalid_arg "Serve: log size %d MiB must be positive" cfg.log_mib;
  (match cfg.n_buckets with
  | Some b when b <= 0 ->
      Fmt.invalid_arg "Serve: bucket count %d must be positive" b
  | _ -> ());
  match cfg.crash_shard with
  | Some s when s < 0 || s >= cfg.shards ->
      Fmt.invalid_arg
        "Serve: crash shard %d is out of range (the service has shards 0..%d)"
        s (cfg.shards - 1)
  | _ -> ()

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let bucket_count (cfg : config) =
  match cfg.n_buckets with
  | Some b -> b
  | None -> next_pow2 (max 1024 (cfg.keys / cfg.shards)) 1024

(* Keys this shard owns, ascending.  Population order (hence the durable
   image) is a pure function of (keys, shards, shard), which is what
   lets the DL checker re-derive the pre-crash baseline instead of
   dumping it. *)
let owned_keys (cfg : config) shard =
  let acc = ref [] in
  for i = cfg.keys - 1 downto 0 do
    let k = Key_space.h_key i in
    if Arrival.route ~shards:cfg.shards k = shard then acc := k :: !acc
  done;
  Array.of_list !acc

let spec_for (cfg : config) ~shard ~owned ~n_buckets ~tracer =
  let rc = Workload.Runner.calibrated_config cfg.platform in
  (* Size each shard's region to its share of the keyspace: buckets,
     entries (generously, to cover skip-list towers and btree nodes),
     allocator slack, and the undo-log region. *)
  let region =
    (n_buckets * 16) + (Array.length owned * 256) + (1 lsl 20)
    + (cfg.log_mib * 1024 * 1024)
  in
  {
    rc with
    platform = Nvm.Config.with_region_size cfg.platform region;
    variant = cfg.variant;
    threads = 1;
    seed = cfg.seed + (7919 * (shard + 1));
    n_buckets;
    log_mib = cfg.log_mib;
    tracer;
  }

let serve_one (ops : Map_intf.ops) ~key ~op =
  if op = Arrival.op_read then ignore (ops.Map_intf.get ~tid:0 ~key : int64 option)
  else if op = Arrival.op_update then
    ops.Map_intf.set ~tid:0 ~key ~value:(Int64.of_int key)
  else ops.Map_intf.incr ~tid:0 ~key ~by:1L

(* Phase-A server loop: take the shard's requests in arrival order, idle
   (charging simulated cycles) until each one's arrival, dispatch, and
   record fate + latency.  The fate/latency arrays are mutated in place,
   so whatever was recorded before a crash abandons the fiber
   survives. *)
let server_body m (stream : Arrival.stream) idx fates lats () =
  let pmem = m.Machine.pmem in
  let sched = m.Machine.sched in
  let ops = m.Machine.map.Machine.map_ops in
  let n = Array.length idx in
  for li = 0 to n - 1 do
    let j = idx.(li) in
    let arr = stream.Arrival.times.(j) in
    let now = Scheduler.now sched in
    if arr > now then Nvm.Pmem.charge pmem (arr - now);
    Nvm.Pmem.charge pmem req_cycles;
    serve_one ops
      ~key:(Key_space.h_key stream.Arrival.ranks.(j))
      ~op:stream.Arrival.ops.(j);
    lats.(li) <- Scheduler.now sched - arr;
    fates.(li) <- f_served
  done

(* --- Degraded-mode planning -------------------------------------- *)

type p2_req = {
  li : int;
  arr : int;
  eff : int;  (** effective (re-)arrival; always [>= t_up] for [< t_up] arrivals *)
  deadline : int option;  (** queue mode: max tolerated [dequeue - arr] *)
  extra_attempts : int;
}

(* Attempt [k] (0 = the original arrival) of a retrying client. *)
let attempt_time ~arr ~backoff k =
  if k = 0 then arr
  else if k >= 40 then max_int
  else
    let d = backoff * ((1 lsl k) - 1) in
    if d < 0 || d > max_int - arr then max_int else arr + d

(* Decide, purely, what happens to every request left pending by the
   crash: an immediate fate (shed / timed out), or a phase-2 service
   plan.  [pending] is (local index, arrival) in arrival order. *)
let plan_phase2 degraded ~t_up pending =
  let immediate = ref [] in
  let serve = ref [] in
  List.iter
    (fun (li, arr) ->
      match degraded with
      | Degraded.Shed ->
          if arr >= t_up then
            serve := { li; arr; eff = arr; deadline = None; extra_attempts = 0 } :: !serve
          else immediate := (li, f_shed) :: !immediate
      | Degraded.Queue { deadline } ->
          serve :=
            { li; arr; eff = max arr t_up; deadline = Some deadline; extra_attempts = 0 }
            :: !serve
      | Degraded.Retry { backoff; max_retries } ->
          let rec first k =
            if k > max_retries then None
            else if attempt_time ~arr ~backoff k >= t_up then Some k
            else first (k + 1)
          in
          (match first 0 with
          | Some k ->
              serve :=
                {
                  li;
                  arr;
                  eff = max (attempt_time ~arr ~backoff k) t_up;
                  deadline = None;
                  extra_attempts = k;
                }
                :: !serve
          | None -> immediate := (li, f_timed_out) :: !immediate))
    pending;
  let serve =
    List.sort
      (fun a b -> match compare a.eff b.eff with 0 -> compare a.li b.li | c -> c)
      !serve
  in
  (List.rev !immediate, serve)

(* Phase-B server loop, on the restarted machine.  The fresh scheduler's
   clocks start at zero; [t_up] anchors them back on the service
   timeline, so waits and latencies are computed in absolute cycles.
   Under incremental recovery [gc] is the pending background collection:
   the first request touching a key pays that object's on-demand
   recovery surcharge (procrastination moves the cost onto the unlucky
   first reader instead of the outage). *)
let resume_body m plan idx fates lats ~t_up ?gc
    (stream : Arrival.stream) () =
  let pmem = m.Machine.pmem in
  let sched = m.Machine.sched in
  let ops = m.Machine.map.Machine.map_ops in
  let touched = Nvm.Intset.create ~capacity:1024 () in
  List.iter
    (fun { li; arr; eff; deadline; extra_attempts = _ } ->
      let rel_target = eff - t_up in
      let now = Scheduler.now sched in
      if rel_target > now then Nvm.Pmem.charge pmem (rel_target - now);
      let waited = t_up + Scheduler.now sched - arr in
      match deadline with
      | Some d when waited > d ->
          (* queue mode drops at dequeue: the client stopped waiting *)
          fates.(li) <- f_timed_out
      | _ ->
          let j = idx.(li) in
          let key = Key_space.h_key stream.Arrival.ranks.(j) in
          (match gc with
          | Some inc
            when Heap_gc.Incremental.remaining_cycles inc > 0
                 && Nvm.Intset.add touched key ->
              ignore (Heap_gc.Incremental.on_demand inc : int)
          | _ -> ());
          Nvm.Pmem.charge pmem req_cycles;
          serve_one ops ~key ~op:stream.Arrival.ops.(j);
          lats.(li) <- (t_up + Scheduler.now sched) - arr;
          fates.(li) <- f_served)
    plan

(* Background collection fiber: drain the incremental GC's budget in
   slices, yielding to the request fiber between charges — the scheduler
   interleaves both by virtual clock, so collection and service overlap
   exactly as they would on a real core pair. *)
let background_gc_body inc () =
  let slice = 4096 in
  while Heap_gc.Incremental.advance inc ~budget:slice > 0 do
    ()
  done

type cell = { c_report : shard_report; c_fates : int array; c_lats : int array }

let run_shard (cfg : config) (stream : Arrival.stream) ~idx ~n_buckets ~crash_step shard =
  let owned = owned_keys cfg shard in
  let tracer = if cfg.trace then Some (Obs.Tracer.create ()) else None in
  let spec = spec_for cfg ~shard ~owned ~n_buckets ~tracer in
  let m = Machine.create spec in
  let pmem = m.Machine.pmem in
  Array.iter
    (fun k -> m.Machine.map.Machine.set_plain ~key:k ~value:(Int64.of_int k))
    owned;
  Nvm.Pmem.persist_all pmem;
  let n = Array.length idx in
  let fates = Array.make n f_pending in
  let lats = Array.make n (-1) in
  (* The history recorder is zero-perturbation (two Scheduler.now reads
     per op), so recording only where it is needed — the shard that will
     crash — changes nothing for anyone. *)
  let history =
    match crash_step with
    | None -> None
    | Some _ ->
        let h = History.create ~sched:m.Machine.sched ~capacity:(max 16 n) () in
        Machine.instrument m (History.wrap h);
        Some h
  in
  ignore
    (Scheduler.spawn m.Machine.sched
       ~name:(Printf.sprintf "shard-%d" shard)
       (server_body m stream idx fates lats)
      : int);
  let outcome = Machine.execute ?crash_at_step:crash_step m in
  let count f = Array.fold_left (fun a c -> if c = f then a + 1 else a) 0 fates in
  let finish ~retry_attempts ~phase2_served ~elapsed ~steps ~outcome ~recovery =
    {
      c_report =
        {
          shard;
          requests = n;
          populated = Array.length owned;
          served = count f_served;
          shed = count f_shed;
          timed_out = count f_timed_out;
          retry_attempts;
          phase2_served;
          sim_cycles = (Nvm.Pmem.stats pmem).Nvm.Stats.clock;
          elapsed_cycles = elapsed;
          steps;
          outcome;
          recovery;
          tracer;
        };
      c_fates = fates;
      c_lats = lats;
    }
  in
  match outcome with
  | Scheduler.Completed ->
      finish ~retry_attempts:0 ~phase2_served:0
        ~elapsed:(Scheduler.elapsed_cycles m.Machine.sched)
        ~steps:(Scheduler.total_steps m.Machine.sched)
        ~outcome:"ok" ~recovery:None
  | Scheduler.Deadlocked _ ->
      finish ~retry_attempts:0 ~phase2_served:0
        ~elapsed:(Scheduler.elapsed_cycles m.Machine.sched)
        ~steps:(Scheduler.total_steps m.Machine.sched)
        ~outcome:"deadlocked" ~recovery:None
  | Scheduler.Crashed { at_step = _ } ->
      let sched1 = m.Machine.sched in
      let t_down = Scheduler.elapsed_cycles sched1 in
      let steps1 = Scheduler.total_steps sched1 in
      let clock_before = (Nvm.Pmem.stats pmem).Nvm.Stats.clock in
      let fault =
        (Machine.crash_execute ?fault:cfg.fault_model m)
          .Tsp_core.Crash_executor.fault
      in
      let recovery = Machine.recover ~mode:cfg.recovery m in
      let recovery_cycles =
        (Nvm.Pmem.stats pmem).Nvm.Stats.clock - clock_before
      in
      let rescued_lines = (Nvm.Pmem.stats pmem).Nvm.Stats.rescued_lines in
      let t_up = t_down + recovery_cycles in
      let pending =
        List.filter_map
          (fun li ->
            if fates.(li) = f_pending then Some (li, stream.Arrival.times.(idx.(li)))
            else None)
          (List.init n Fun.id)
      in
      let recovered_ok =
        recovery.Machine.heap <> None && recovery.Machine.heap_audit_ok
      in
      (* The victim restarts on the recovered heap and its map is read
         back under one guard: a damaged image the heap audit passed
         can still make the restart, the map's audit or its walk
         raise.  The error carries the reason and what it adds to
         [recovery_errors]. *)
      let read =
        if not recovered_ok then Error ("the shard state was not recovered", [])
        else
          match
            Machine.read_back m ~root:(fun () -> Machine.reattach m recovery) ignore
          with
          | Ok (entries, ()) -> Ok entries
          | Error msg ->
              let reason = "map read-back failed: " ^ msg in
              Error (reason, [ reason ])
      in
      match read with
      | Error (reason, errors) ->
          (* the shard never comes back: every pending request is shed *)
          List.iter (fun (li, _) -> fates.(li) <- f_shed) pending;
          finish ~retry_attempts:0 ~phase2_served:0 ~elapsed:t_up ~steps:steps1
            ~outcome:"crashed+lost"
            ~recovery:
              (Some
                 {
                   t_down;
                   t_up;
                   recovery_cycles;
                   rescued_lines;
                   fault;
                   background_gc_cycles = 0;
                   on_demand_recovered = 0;
                   recovery_verdict = recovery.Machine.recovery_verdict;
                   dl = None;
                   dl_note = "skipped: " ^ reason;
                   recovery_errors = recovery.Machine.recovery_errors @ errors;
                 })
      | Ok recovered_entries ->
          let dl, dl_note =
            match
              ( Workload.Check_campaign.dl_envelope
                  ~hardware:spec.Machine.hardware
                  ~failure:spec.Machine.failure cfg.fault_model,
                history )
            with
            | Error reason, _ -> (None, "skipped: " ^ reason)
            | Ok (), None -> (None, "skipped: no history recorded")
            | Ok (), Some h ->
                let initial =
                  Array.to_list (Array.map (fun k -> (k, Int64.of_int k)) owned)
                in
                (Some (Dl.check ~initial ~history:h ~recovered:recovered_entries), "")
          in
          (* Re-anchor the tracer's clock on the service timeline: the
             restarted scheduler counts from zero, t_up cycles in. *)
          (match tracer with
          | None -> ()
          | Some tr ->
              let sched2 = m.Machine.sched in
              let stats = Nvm.Pmem.stats pmem in
              Obs.Tracer.set_clock tr (fun () ->
                  if Scheduler.in_thread sched2 then t_up + Scheduler.now sched2
                  else stats.Nvm.Stats.clock));
          let immediate, plan = plan_phase2 cfg.degraded ~t_up pending in
          List.iter (fun (li, f) -> fates.(li) <- f) immediate;
          let retry_attempts =
            List.fold_left (fun a r -> a + r.extra_attempts) 0 plan
            + (List.length (List.filter (fun (_, f) -> f = f_timed_out) immediate)
              * (match cfg.degraded with
                | Degraded.Retry { max_retries; _ } -> max_retries
                | Degraded.Shed | Degraded.Queue _ -> 0))
          in
          let gc_pending = recovery.Machine.gc_pending in
          ignore
            (Scheduler.spawn m.Machine.sched
               ~name:(Printf.sprintf "shard-%d-recovered" shard)
               (resume_body m plan idx fates lats ~t_up ?gc:gc_pending stream)
              : int);
          (match gc_pending with
          | Some inc ->
              ignore
                (Scheduler.spawn m.Machine.sched
                   ~name:(Printf.sprintf "shard-%d-gc" shard)
                   (background_gc_body inc)
                  : int)
          | None -> ());
          let outcome2 = Machine.execute m in
          let background_gc_cycles, on_demand_recovered =
            match gc_pending with
            | Some inc ->
                ( Heap_gc.Incremental.total_cycles inc,
                  Heap_gc.Incremental.on_demand_count inc )
            | None -> (0, 0)
          in
          ignore
            (Machine.finish_background_gc m
              : (Heap_gc.stats * Heap_gc.quarantine) option);
          let phase2_served =
            List.fold_left
              (fun a r -> if fates.(r.li) = f_served then a + 1 else a)
              0 plan
          in
          finish ~retry_attempts ~phase2_served
            ~elapsed:(t_up + Scheduler.elapsed_cycles m.Machine.sched)
            ~steps:(steps1 + Scheduler.total_steps m.Machine.sched)
            ~outcome:
              (match outcome2 with
              | Scheduler.Completed -> "crashed+recovered"
              | Scheduler.Deadlocked _ -> "deadlocked"
              | Scheduler.Crashed _ -> "crashed+lost")
            ~recovery:
              (Some
                 {
                   t_down;
                   t_up;
                   recovery_cycles;
                   rescued_lines;
                   fault;
                   background_gc_cycles;
                   on_demand_recovered;
                   recovery_verdict = recovery.Machine.recovery_verdict;
                   dl;
                   dl_note;
                   recovery_errors = recovery.Machine.recovery_errors;
                 })

(* --- Aggregation -------------------------------------------------- *)

let fate_of_code = function
  | 0 -> Pending
  | 1 -> Served
  | 2 -> Shed
  | _ -> Timed_out

let build_windows (cfg : config) ~horizon ~times fates =
  let w = cfg.windows in
  let width = max 1 ((horizon + w - 1) / w) in
  let wins =
    Array.init w (fun i ->
        {
          w_start = i * width;
          w_end = (if i = w - 1 then max horizon ((i + 1) * width) else (i + 1) * width);
          total = 0;
          ok = 0;
          failed = 0;
        })
  in
  Array.iteri
    (fun j fate ->
      let i = min (w - 1) (times.(j) / width) in
      let win = wins.(i) in
      wins.(i) <-
        {
          win with
          total = win.total + 1;
          ok = (win.ok + if fate = Served then 1 else 0);
          failed = (win.failed + if fate = Served then 0 else 1);
        })
    fates;
  wins

(* Per-(shard, phase) latency distributions as log-bucketed histograms:
   one pass over the request stream feeds a fixed set of Obs.Hist cells
   instead of materializing a sample list per cell, so the service path
   retains O(shards x phases) histograms rather than O(requests)
   samples.  Quantiles follow the same nearest-rank convention
   Report.percentiles used here before, within the histogram's 6.25%
   bucket error. *)
let latency_rows (cfg : config) ~outage ~times ~shard_of fates lats =
  let phases =
    match outage with
    | None -> [| ("steady", 0, max_int) |]
    | Some (t_down, t_up) ->
        [| ("before", 0, t_down); ("during", t_down, t_up); ("after", t_up, max_int) |]
  in
  let np = Array.length phases in
  let hists = Array.init (cfg.shards * np) (fun _ -> Obs.Hist.create ()) in
  Array.iteri
    (fun j fate ->
      if fate = Served then begin
        let rec phase_of i =
          if i >= np then -1
          else
            let _, lo, hi = phases.(i) in
            if times.(j) >= lo && times.(j) < hi then i else phase_of (i + 1)
        in
        let p = phase_of 0 in
        if p >= 0 then Obs.Hist.add hists.((shard_of.(j) * np) + p) lats.(j)
      end)
    fates;
  List.concat_map
    (fun shard ->
      List.filter_map
        (fun p ->
          let name, _, _ = phases.(p) in
          let h = hists.((shard * np) + p) in
          if Obs.Hist.is_empty h then None
          else
            Some
              {
                l_shard = shard;
                l_phase = name;
                samples = Obs.Hist.count h;
                p50 = Obs.Hist.quantile h 0.5;
                p99 = Obs.Hist.quantile h 0.99;
                p999 = Obs.Hist.quantile h 0.999;
                lat_hist = h;
              })
        (List.init np Fun.id))
    (List.init cfg.shards Fun.id)

let run ?jobs (cfg : config) =
  validate cfg;
  let stream =
    Arrival.generate ~seed:cfg.seed ~rate_per_mcycle:cfg.rate_per_mcycle
      ~theta:cfg.theta ~keys:cfg.keys ~preset:cfg.preset ~requests:cfg.requests
  in
  let horizon = Arrival.horizon stream in
  let shard_of =
    Array.map
      (fun rank -> Arrival.route ~shards:cfg.shards (Key_space.h_key rank))
      stream.Arrival.ranks
  in
  let idx_of shard =
    let acc = ref [] in
    for j = cfg.requests - 1 downto 0 do
      if shard_of.(j) = shard then acc := j :: !acc
    done;
    Array.of_list !acc
  in
  let idxs = Array.init cfg.shards idx_of in
  let n_buckets = bucket_count cfg in
  (* Resolve the crash point: half the victim's crash-free step count,
     derived from a baseline pre-run of that one cell.  The baseline is
     the same pure function the fan-out runs, so its prefix is exactly
     what the crashed run will execute. *)
  let crash_step_of shard =
    match cfg.crash_at_step with
    | Some s ->
        if s < 1 then
          Fmt.invalid_arg "Serve: crash step %d must be >= 1 (steps count from 1)" s;
        s
    | None ->
        let baseline =
          run_shard
            { cfg with trace = false }
            stream ~idx:idxs.(shard) ~n_buckets ~crash_step:None shard
        in
        max 1 (baseline.c_report.steps / 2)
  in
  let crash_plan =
    match cfg.crash_shard with
    | None -> Array.make cfg.shards None
    | Some victim ->
        let step = crash_step_of victim in
        Array.init cfg.shards (fun s -> if s = victim then Some step else None)
  in
  let cells =
    Parallel.map ?jobs
      (fun shard ->
        run_shard cfg stream ~idx:idxs.(shard) ~n_buckets
          ~crash_step:crash_plan.(shard) shard)
      (List.init cfg.shards Fun.id)
  in
  let cells = Array.of_list cells in
  let fates = Array.make cfg.requests Pending in
  let latencies = Array.make cfg.requests (-1) in
  Array.iteri
    (fun shard cell ->
      Array.iteri
        (fun li j ->
          fates.(j) <- fate_of_code cell.c_fates.(li);
          latencies.(j) <- cell.c_lats.(li))
        idxs.(shard))
    cells;
  let shards = Array.map (fun c -> c.c_report) cells in
  let outage =
    Array.fold_left
      (fun acc (r : shard_report) ->
        match (acc, r.recovery) with
        | None, Some rr -> Some (rr.t_down, rr.t_up)
        | acc, _ -> acc)
      None shards
  in
  {
    config = cfg;
    horizon;
    shards;
    fates;
    latencies;
    windows = build_windows cfg ~horizon ~times:stream.Arrival.times fates;
    latency = latency_rows cfg ~outage ~times:stream.Arrival.times ~shard_of fates latencies;
  }

(* The service's verdict on a run: a shard fails when it deadlocked,
   when it was lost although the model its crash ran promised no loss,
   or when its recovered state is not durably linearizable. *)
let failed r =
  let bad s =
    s.outcome = "deadlocked"
    ||
    match s.recovery with
    | None -> false
    | Some rr ->
        (s.outcome = "crashed+lost"
        && not (Nvm.Fault_model.expects_loss rr.fault))
        || (match rr.dl with Some v -> not (Dl.is_explained v) | None -> false)
  in
  Array.exists bad r.shards

(* --- Rendering ---------------------------------------------------- *)

let render r =
  let cfg = r.config in
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "tsp serve: %d shards x %s on %s\n" cfg.shards
    (Machine.variant_to_string cfg.variant)
    cfg.platform.Nvm.Config.name;
  pf
    "stream: %d requests @ %.1f req/Mcycle, zipf(theta=%.2f) over %d keys, \
     ycsb-%s, seed %d\n"
    cfg.requests cfg.rate_per_mcycle cfg.theta cfg.keys
    (Ycsb.preset_to_string cfg.preset)
    cfg.seed;
  pf "degraded mode: %s; horizon: %d cycles\n\n" (Degraded.to_string cfg.degraded)
    r.horizon;
  pf "%5s %7s %7s %7s %6s %5s %8s %7s %10s %12s  %s\n" "shard" "reqs" "keys"
    "served" "shed" "t/o" "retries" "phase2" "steps" "sim-cycles" "outcome";
  Array.iter
    (fun (s : shard_report) ->
      pf "%5d %7d %7d %7d %6d %5d %8d %7d %10d %12d  %s\n" s.shard s.requests
        s.populated s.served s.shed s.timed_out s.retry_attempts s.phase2_served
        s.steps s.sim_cycles s.outcome)
    r.shards;
  let total f = Array.fold_left (fun a s -> a + f s) 0 r.shards in
  let served = total (fun s -> s.served) in
  let shed = total (fun s -> s.shed) in
  let timed_out = total (fun s -> s.timed_out) in
  let avail =
    if cfg.requests = 0 then 100.
    else 100. *. float_of_int served /. float_of_int cfg.requests
  in
  pf "totals: served %d, shed %d, timed out %d -> availability %.2f%%\n" served
    shed timed_out avail;
  Array.iter
    (fun (s : shard_report) ->
      match s.recovery with
      | None -> ()
      | Some rr ->
          pf
            "\ncrash: shard %d down at cycle %d; recovery took %d cycles (%d \
             lines rescued); serving again at cycle %d\n"
            s.shard rr.t_down rr.recovery_cycles rr.rescued_lines rr.t_up;
          if rr.background_gc_cycles > 0 then
            pf
              "background gc: %d cycles overlapped with service; %d objects \
               recovered on demand\n"
              rr.background_gc_cycles rr.on_demand_recovered;
          pf "recovery verdict: %s\n"
            (Fmt.str "%a" Atlas.Recovery.pp_verdict rr.recovery_verdict);
          (match rr.dl with
          | Some v ->
              pf "durable linearizability: %s\n" (Fmt.str "%a" Dl.pp_verdict v)
          | None -> pf "durable linearizability: %s\n" rr.dl_note);
          if rr.recovery_errors <> [] then
            pf "recovery errors: %s\n" (String.concat "; " rr.recovery_errors))
    r.shards;
  if Array.length r.windows > 0 then begin
    pf "\navailability timeline (%d windows):\n" (Array.length r.windows);
    Array.iter
      (fun w ->
        if w.total = 0 then
          pf "  [%10d, %10d)  %5s\n" w.w_start w.w_end "-"
        else begin
          let frac = float_of_int w.ok /. float_of_int w.total in
          let bar = int_of_float (frac *. 20.) in
          pf "  [%10d, %10d)  %6d/%-6d %6.2f%%  %s\n" w.w_start w.w_end w.ok
            w.total (100. *. frac)
            (String.make bar '#' ^ String.make (20 - bar) '.')
        end)
      r.windows
  end;
  if r.latency <> [] then begin
    pf "\nlatency (cycles, by arrival phase):\n";
    pf "  %5s %-7s %7s %10s %10s %10s  %s\n" "shard" "phase" "n" "p50" "p99"
      "p999" "distribution";
    List.iter
      (fun l ->
        pf "  %5d %-7s %7d %10d %10d %10d  %s\n" l.l_shard l.l_phase l.samples
          l.p50 l.p99 l.p999
          (Obs.Hist.sparkline ~width:24 l.lat_hist))
      r.latency
  end;
  Buffer.contents b

let write_trace r ~path =
  let tracks =
    Array.to_list r.shards
    |> List.filter_map (fun (s : shard_report) ->
           Option.map (fun tr -> (Printf.sprintf "shard-%d" s.shard, tr)) s.tracer)
  in
  match tracks with
  | [] -> false
  | tracks ->
      Obs.Chrome.write_file_multi path tracks;
      true

(* The service report as the results-artifact body: per-shard ledger,
   availability windows and the per-(shard, phase) latency histograms.
   Everything emitted is jobs-invariant (shard cells are deterministic
   and collected in order); tracer contents and host timings are
   excluded. *)
let to_json j r =
  let module J = Obs.Json in
  J.obj_open j;
  J.key j "horizon";
  J.int j r.horizon;
  let total f = Array.fold_left (fun a s -> a + f s) 0 r.shards in
  J.key j "served";
  J.int j (total (fun s -> s.served));
  J.key j "shed";
  J.int j (total (fun s -> s.shed));
  J.key j "timed_out";
  J.int j (total (fun s -> s.timed_out));
  J.key j "shards";
  J.arr_open j;
  Array.iter
    (fun (s : shard_report) ->
      J.obj_open j;
      J.key j "shard";
      J.int j s.shard;
      J.key j "requests";
      J.int j s.requests;
      J.key j "populated";
      J.int j s.populated;
      J.key j "served";
      J.int j s.served;
      J.key j "shed";
      J.int j s.shed;
      J.key j "timed_out";
      J.int j s.timed_out;
      J.key j "retry_attempts";
      J.int j s.retry_attempts;
      J.key j "phase2_served";
      J.int j s.phase2_served;
      J.key j "steps";
      J.int j s.steps;
      J.key j "sim_cycles";
      J.int j s.sim_cycles;
      J.key j "outcome";
      J.str j s.outcome;
      (match s.recovery with
      | None -> ()
      | Some rr ->
          J.key j "recovery";
          J.obj_open j;
          J.key j "t_down";
          J.int j rr.t_down;
          J.key j "t_up";
          J.int j rr.t_up;
          J.key j "recovery_cycles";
          J.int j rr.recovery_cycles;
          J.key j "rescued_lines";
          J.int j rr.rescued_lines;
          J.key j "background_gc_cycles";
          J.int j rr.background_gc_cycles;
          J.key j "on_demand_recovered";
          J.int j rr.on_demand_recovered;
          J.key j "verdict";
          J.str j (Fmt.str "%a" Atlas.Recovery.pp_verdict rr.recovery_verdict);
          J.key j "dl";
          (match rr.dl with
          | Some v -> J.str j (Fmt.str "%a" Dl.pp_verdict v)
          | None -> J.str j rr.dl_note);
          J.key j "recovery_errors";
          J.arr_open j;
          List.iter (J.str j) rr.recovery_errors;
          J.arr_close j;
          J.obj_close j);
      J.obj_close j)
    r.shards;
  J.arr_close j;
  J.key j "windows";
  J.arr_open j;
  Array.iter
    (fun w ->
      J.obj_open j;
      J.key j "start";
      J.int j w.w_start;
      J.key j "end";
      J.int j w.w_end;
      J.key j "total";
      J.int j w.total;
      J.key j "ok";
      J.int j w.ok;
      J.key j "failed";
      J.int j w.failed;
      J.obj_close j)
    r.windows;
  J.arr_close j;
  J.key j "latency";
  J.arr_open j;
  List.iter
    (fun l ->
      J.obj_open j;
      J.key j "shard";
      J.int j l.l_shard;
      J.key j "phase";
      J.str j l.l_phase;
      J.key j "hist";
      Obs.Hist.to_json j l.lat_hist;
      J.obj_close j)
    r.latency;
  J.arr_close j;
  J.obj_close j
