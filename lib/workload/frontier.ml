(* The fence-complexity frontier (ROADMAP item 1): every map design run
   on one identical counter workload, charted as dynamic psync
   complexity per completed operation vs throughput vs crash-recovery
   verdict.  Two legs per variant, both deterministic:

   - a traced crash-free run for throughput and the psync counters
     (per-op rates — the per-commit ones are undefined for the three
     commit-free designs);
   - one exhaustive-checker point — crash mid-run under TSP rescue
     semantics, recover, and check strict durable linearizability of
     the recovered state against the recorded history.

   The rows substantiate the paper's procrastination thesis end to end:
   designs that flush less (procrastinate more) sit strictly higher on
   the throughput axis at the same "explained" recovery verdict. *)

type row = {
  variant : Machine.variant;
  miters : float;
  elapsed_cycles : int;
  completed_ops : int;
  ocs_commits : int;
  flushes_per_op : float;
  fences_per_op : float;
  appends_per_op : float;
  dl_explained : bool;
  dl_capped : int;  (* subset-sum-capped keys: accepted, not proved *)
  recovery_verdict : Atlas.Recovery.verdict option;
}

(* The six designs of the frontier table (EXPERIMENTS E23). *)
let default_variants =
  [
    Machine.Mutex_map Atlas.Mode.No_log;
    Machine.Mutex_map Atlas.Mode.Log_only;
    Machine.Mutex_map Atlas.Mode.Log_flush;
    Machine.Nonblocking_map;
    Machine.Nvtraverse_map;
    Machine.Delayfree_map;
  ]

let threads = 4
let iterations = 2000
let crash_step = 40_000

let base_config ~platform ~seed =
  {
    (Runner.smoke_workload Runner.default_config) with
    Runner.platform;
    threads;
    iterations;
    seed;
  }

let measure ~config variant =
  let config = { config with Runner.variant } in
  (* Leg 1: traced crash-free run.  The tracer is private to this
     machine; only its exact counters are read, so the small ring is
     irrelevant. *)
  let tracer = Obs.Tracer.create ~ring_cap:4096 () in
  let r = Runner.run { config with Runner.tracer = Some tracer } in
  let completed_ops = Runner.completed_ops r in
  let m = Obs.Metrics.of_tracer ~completed_ops tracer in
  (* Leg 2: one strict-DL crash point (untraced). *)
  let spec =
    {
      (Check_campaign.default_spec config) with
      Check_campaign.from_step = crash_step;
      window = 1;
      stride = 1;
    }
  in
  let summary = Check_campaign.run ~jobs:1 spec in
  let point = List.hd summary.Check_campaign.points in
  {
    variant;
    miters = r.Runner.miters_per_sec;
    elapsed_cycles = r.Runner.elapsed_cycles;
    completed_ops;
    ocs_commits = m.Obs.Metrics.ocs_commits;
    flushes_per_op = m.Obs.Metrics.flushes_per_op;
    fences_per_op = m.Obs.Metrics.fences_per_op;
    appends_per_op = m.Obs.Metrics.appends_per_op;
    dl_explained = Check.Dl.is_explained point.Check_campaign.dl;
    dl_capped = Check_campaign.capped_of point;
    recovery_verdict = point.Check_campaign.recovery_verdict;
  }

let run ?jobs ?(variants = default_variants) ?(seed = 42) ~platform () =
  (* All parameters are fixed before the fan-out, so the rows are
     byte-identical for any [jobs]. *)
  let config = base_config ~platform ~seed in
  Parallel.map ?jobs (measure ~config) variants

let find rows variant =
  List.find_opt (fun r -> r.variant = variant) rows

(* The tentpole claim: the NVTraverse transformation strictly reduces
   flushes per operation versus eager log-flush fortification at equal
   or better throughput. *)
let nvtraverse_beats_logflush rows =
  match
    ( find rows Machine.Nvtraverse_map,
      find rows (Machine.Mutex_map Atlas.Mode.Log_flush) )
  with
  | Some nvt, Some lf ->
      nvt.flushes_per_op < lf.flushes_per_op && nvt.miters >= lf.miters
  | _ -> false

let pp_verdict ppf = function
  | None -> Fmt.string ppf "-"
  | Some Atlas.Recovery.Clean -> Fmt.string ppf "clean"
  | Some (Atlas.Recovery.Degraded _) -> Fmt.string ppf "degraded"
  | Some (Atlas.Recovery.Unrecoverable _) -> Fmt.string ppf "UNRECOVERABLE"

let pp ppf rows =
  Fmt.pf ppf
    "@[<v>fence-complexity frontier (counter workload; psync per \
     completed op):@ ";
  Fmt.pf ppf "%-16s %10s %10s %10s %9s %9s  %-12s %s@ " "variant"
    "flushes/op" "fences/op" "appends/op" "commits" "Miters/s" "DL verdict"
    "recovery";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-16s %10.3f %10.3f %10.3f %9d %9.2f  %-12s %a@ "
        (Machine.variant_to_cli_string r.variant)
        r.flushes_per_op r.fences_per_op r.appends_per_op r.ocs_commits
        r.miters
        (if r.dl_explained then
           if r.dl_capped = 0 then "explained"
           else Fmt.str "explained*%d" r.dl_capped
         else "FLAGGED")
        pp_verdict r.recovery_verdict)
    rows;
  Fmt.pf ppf
    "(*N: N keys accepted via the conservative subset-sum cap, not \
     proved)@ ";
  Fmt.pf ppf "NVTraverse < log-flush on flushes/op at >= throughput: %s@]"
    (if nvtraverse_beats_logflush rows then "yes" else "NO")

(* The frontier's slice of a results artifact: one row per design with
   its throughput, psync-per-op rates and verdicts — the E23 chart as
   data.  Rows are pure functions of the run parameters, so the
   document is byte-identical across --jobs. *)
let to_json j rows =
  let module J = Obs.Json in
  J.arr_open j;
  List.iter
    (fun r ->
      J.obj_open j;
      J.key j "variant";
      J.str j (Machine.variant_to_cli_string r.variant);
      J.key j "miters";
      J.float j r.miters;
      J.key j "elapsed_cycles";
      J.int j r.elapsed_cycles;
      J.key j "completed_ops";
      J.int j r.completed_ops;
      J.key j "ocs_commits";
      J.int j r.ocs_commits;
      J.key j "flushes_per_op";
      J.float j r.flushes_per_op;
      J.key j "fences_per_op";
      J.float j r.fences_per_op;
      J.key j "appends_per_op";
      J.float j r.appends_per_op;
      J.key j "dl_explained";
      J.bool j r.dl_explained;
      J.key j "dl_capped";
      J.int j r.dl_capped;
      J.key j "recovery";
      (match r.recovery_verdict with
      | None -> J.null j
      | Some v -> J.str j (Fmt.str "%a" Atlas.Recovery.pp_verdict v));
      J.obj_close j)
    rows;
  J.arr_close j
