module FM = Nvm.Fault_model
module Rng = Sched.Sim_rng

type spec = {
  base : Runner.config;
  from_step : int;
  window : int;
  stride : int;
  mutate : (Tsp_maps.Map_intf.ops -> Tsp_maps.Map_intf.ops) option;
  mutate_label : string;
}

let default_spec base =
  {
    base;
    from_step = 500;
    window = 2000;
    stride = 100;
    mutate = None;
    mutate_label = "";
  }

type point = {
  crash_step : int;
  crashed : bool;
  ops_recorded : int;
  ops_completed : int;
  ops_pending : int;
  dl : Check.Dl.verdict;
  recovery_verdict : Atlas.Recovery.verdict option;
  cycle_totals : int array;
      (* per-category device cycles of this point's run, recorded in its
         own Parallel.map domain so the summed ledger is jobs-invariant *)
}

type summary = {
  spec : spec;
  points : point list;
  total : int;
  crashes : int;
  explained : int;
  flagged : int;
  capped_points : int;
  capped_keys : int;
  clean_recoveries : int;
  degraded_recoveries : int;
}

let capped_of p =
  match p.dl with
  | Check.Dl.Explained s | Check.Dl.Violation (s, _) -> s.Check.Dl.capped

(* Wide values and transfers go through [set_wide]/[transfer], which the
   recorder does not see. *)
let recorded_workload config =
  match config.Runner.workload with
  | Runner.Counters _ | Runner.Mixed _ | Runner.Ycsb _ -> ()
  | Runner.Wide _ | Runner.Transfers _ ->
      invalid_arg
        "Check_campaign: wide-value and transfer workloads bypass the \
         recorded operation interface (set_wide / transfer); use counters, \
         mixed or YCSB"

(* The recording baseline is what the run stored before its threads
   started, derived from the config: dumping it would touch the
   simulated cache and perturb the run under test. *)
let initial_entries config =
  recorded_workload config;
  Runner.initial_entries config

(* Strict durable linearizability — completed operations must survive —
   is only a sound expectation when the crash executes rescue semantics:
   every store issued before the crash reaches the durable image, and
   Atlas rollback undoes only uncommitted (hence pending) sections.
   Under discard/partial/torn/bit-rot semantics completed work may
   legitimately vanish, and a "violation" would indict the fault model,
   not the structure. *)
let dl_envelope ~hardware ~failure fault =
  match (Tsp_core.Policy.crash_model ~hardware ~failure fault, fault) with
  | FM.Full_rescue, _ -> Ok ()
  | _, None ->
      Error "the hardware/failure pair gets a non-TSP verdict (discard \
             semantics), outside the strict checker's soundness envelope"
  | fm, Some _ ->
      Fmt.error "fault model %s is outside the strict checker's soundness \
                 envelope (rescue-class semantics required)" (FM.to_string fm)

let validate spec =
  let b = spec.base in
  recorded_workload b;
  dl_envelope ~hardware:b.Runner.hardware ~failure:b.Runner.failure
    b.Runner.fault_model
  |> Result.iter_error (fun why -> invalid_arg ("Check_campaign: " ^ why));
  if spec.stride < 1 then
    invalid_arg "Check_campaign: stride must be >= 1";
  if spec.window < 1 then
    invalid_arg "Check_campaign: window must be >= 1"

let non_durable ~seed ~every ops =
  if every < 1 then invalid_arg "Check_campaign.non_durable: every must be >= 1";
  let rng = Rng.create ~seed in
  let swallow () = Rng.int rng every = 0 in
  {
    ops with
    Tsp_maps.Map_intf.set =
      (fun ~tid ~key ~value ->
        if not (swallow ()) then ops.Tsp_maps.Map_intf.set ~tid ~key ~value);
    incr =
      (fun ~tid ~key ~by ->
        if not (swallow ()) then ops.Tsp_maps.Map_intf.incr ~tid ~key ~by);
    remove =
      (fun ~tid ~key ->
        if swallow () then false else ops.Tsp_maps.Map_intf.remove ~tid ~key);
  }

let one spec ~crash_step =
  let recorder = ref None in
  let instrument sched ops =
    let ops = match spec.mutate with Some m -> m ops | None -> ops in
    let h = Check.History.create ~sched () in
    recorder := Some h;
    Check.History.wrap h ops
  in
  let config =
    {
      spec.base with
      Runner.crash_at_step = Some crash_step;
      instrument = Some instrument;
    }
  in
  let r = Runner.run config in
  let h =
    match !recorder with
    | Some h -> h
    | None -> Fmt.failwith "Check_campaign: instrument hook never ran"
  in
  let crashed =
    match r.Runner.outcome with Runner.Crashed _ -> true | _ -> false
  in
  let dl =
    match r.Runner.outcome with
    | Runner.Deadlocked names ->
        Check.Dl.Violation
          ( {
              Check.Dl.ops = Check.History.length h;
              completed = Check.History.completed h;
              pending = Check.History.pending h;
              keys = 0;
              capped = 0;
            },
            [
              {
                Check.Dl.key = -1;
                detail =
                  Fmt.str "run deadlocked (%a)"
                    Fmt.(list ~sep:comma string)
                    names;
              };
            ] )
    | Runner.Completed | Runner.Crashed _ ->
        Check.Dl.check ~initial:(initial_entries config) ~history:h
          ~recovered:r.Runner.entries
  in
  {
    crash_step;
    crashed;
    ops_recorded = Check.History.length h;
    ops_completed = Check.History.completed h;
    ops_pending = Check.History.pending h;
    dl;
    recovery_verdict =
      Option.map (fun c -> c.Machine.recovery_verdict) r.Runner.crash;
    cycle_totals = Nvm.Stats.cycle_totals r.Runner.device_stats;
  }

let window { from_step; window; stride; _ } =
  { Runner.from_step; window; stride }

let run ?jobs spec =
  validate spec;
  let points =
    Parallel.map ?jobs
      (fun crash_step -> one spec ~crash_step)
      (Runner.crash_steps (window spec))
  in
  let count p = List.length (List.filter p points) in
  {
    spec;
    points;
    total = List.length points;
    crashes = count (fun p -> p.crashed);
    explained = count (fun p -> Check.Dl.is_explained p.dl);
    flagged = count (fun p -> not (Check.Dl.is_explained p.dl));
    capped_points = count (fun p -> capped_of p > 0);
    capped_keys = List.fold_left (fun n p -> n + capped_of p) 0 points;
    clean_recoveries =
      count (fun p -> p.recovery_verdict = Some Atlas.Recovery.Clean);
    degraded_recoveries =
      count (fun p ->
          match p.recovery_verdict with
          | Some (Atlas.Recovery.Degraded _) -> true
          | _ -> false);
  }

let clean s = s.flagged = 0

let breakdown s =
  Nvm.Stats.sum_cycle_totals (List.map (fun p -> p.cycle_totals) s.points)

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>check: %s on %s, %a, strict durable linearizability%s@ %d \
     points: %d crashed; %d explained, %d FLAGGED@ recovery verdicts: %d \
     clean, %d degraded"
    (Runner.variant_to_string s.spec.base.Runner.variant)
    s.spec.base.Runner.platform.Nvm.Config.name Runner.pp_window
    (window s.spec)
    (if String.equal s.spec.mutate_label "" then ""
     else " [mutant: " ^ s.spec.mutate_label ^ "]")
    s.total s.crashes s.explained s.flagged s.clean_recoveries
    s.degraded_recoveries;
  (* The subset-sum search inside the per-key DL check caps its
     enumeration (Check.Dl.subset_limit); a capped key is accepted
     conservatively, not proved.  Keep that ledger explicit so
     "explained" can be read as "proved" exactly when it shows 0. *)
  Fmt.pf ppf
    "@ conservative accepts: %d points hit the subset-sum cap (%d keys \
     accepted unproved)"
    s.capped_points s.capped_keys;
  Fmt.pf ppf "@ device cycles across all points:@ %a"
    Nvm.Stats.pp_breakdown_totals (breakdown s);
  Report.capped_rows ~more:"flagged points"
    (fun ppf p ->
      Fmt.pf ppf "step %d (%d ops, %d pending): %a" p.crash_step
        p.ops_recorded p.ops_pending Check.Dl.pp_verdict p.dl)
    ppf
    (List.filter (fun p -> not (Check.Dl.is_explained p.dl)) s.points);
  Fmt.pf ppf "@]"

(* Normalized failure signature of a flagged point: DL violation x
   campaign variant x the first per-key diagnosis (digit runs
   normalized away) x the flagged-key-set shape.  The crash step, op
   counts and recovered values all normalize out, so the same planted
   bug flagged at two crash points dedupes to one signature. *)
let signature_of_point ~(spec : spec) (p : point) =
  match p.dl with
  | Check.Dl.Explained _ -> None
  | Check.Dl.Violation (_, violations) ->
      let detail =
        match violations with
        | [] -> "violation"
        | v :: _ -> v.Check.Dl.detail
      in
      Some
        (Obs.Signature.make ~klass:"dl-violation"
           ~phase:(Machine.variant_to_cli_string spec.base.Runner.variant)
           ~invariant:detail
           ~shape:(Obs.Signature.shape_of_count (List.length violations)))

let distinct_signatures s =
  Obs.Signature.tally (List.filter_map (signature_of_point ~spec:s.spec) s.points)

(* The campaign's slice of a results artifact: spec echo, point totals,
   per-point outcome rows and deduped signatures.  Everything here is a
   pure function of the spec (points are enumerated, not sampled), so
   the document is byte-identical across --jobs. *)
let to_json j s =
  let module J = Obs.Json in
  let b = s.spec.base in
  J.obj_open j;
  J.key j "variant";
  J.str j (Machine.variant_to_cli_string b.Runner.variant);
  J.key j "platform";
  J.str j b.Runner.platform.Nvm.Config.name;
  J.key j "threads";
  J.int j b.Runner.threads;
  J.key j "iterations";
  J.int j b.Runner.iterations;
  J.key j "seed";
  J.int j b.Runner.seed;
  J.key j "mutant";
  J.str j s.spec.mutate_label;
  J.key j "crash_window";
  Runner.window_to_json j (window s.spec);
  J.key j "total";
  J.int j s.total;
  J.key j "crashes";
  J.int j s.crashes;
  J.key j "explained";
  J.int j s.explained;
  J.key j "flagged";
  J.int j s.flagged;
  J.key j "capped_points";
  J.int j s.capped_points;
  J.key j "capped_keys";
  J.int j s.capped_keys;
  J.key j "clean_recoveries";
  J.int j s.clean_recoveries;
  J.key j "degraded_recoveries";
  J.int j s.degraded_recoveries;
  J.key j "signatures";
  Obs.Signature.tally_to_json j (distinct_signatures s);
  J.key j "points";
  J.arr_open j;
  List.iter
    (fun p ->
      J.obj_open j;
      J.key j "crash_step";
      J.int j p.crash_step;
      J.key j "crashed";
      J.bool j p.crashed;
      J.key j "ops_recorded";
      J.int j p.ops_recorded;
      J.key j "ops_completed";
      J.int j p.ops_completed;
      J.key j "ops_pending";
      J.int j p.ops_pending;
      J.key j "explained";
      J.bool j (Check.Dl.is_explained p.dl);
      J.key j "capped_keys";
      J.int j (capped_of p);
      J.key j "recovery";
      (match p.recovery_verdict with
      | None -> J.null j
      | Some v -> J.str j (Fmt.str "%a" Atlas.Recovery.pp_verdict v));
      (match signature_of_point ~spec:s.spec p with
      | None -> ()
      | Some sg ->
          J.key j "signature";
          J.str j sg.Obs.Signature.hash;
          J.key j "detail";
          J.str j (Fmt.str "%a" Check.Dl.pp_verdict p.dl));
      J.obj_close j)
    s.points;
  J.arr_close j;
  J.key j "cycle_totals";
  J.arr_open j;
  Array.iter (fun c -> J.int j c) (breakdown s);
  J.arr_close j;
  J.obj_close j
