module Rng = Sched.Sim_rng
module FM = Nvm.Fault_model

type exhaustive = { from_step : int; window : int; stride : int }

type spec = {
  base : Runner.config;
  runs : int;
  min_step : int;
  max_step : int;
  campaign_seed : int;
  fault_models : FM.t option list;
  exhaustive : exhaustive option;
  run_seed : int option;
  shrink : bool;
  repro_tag : string;
}

type run_outcome = {
  seed : int;
  crash_step : int;
  fault : FM.t option;
  crashed : bool;
  consistent : bool;
  graceful : bool;
  recovery_verdict : Atlas.Recovery.verdict option;
  violation : bool;
  expected : bool;
  repro : string;
  iterations_done : int;
  invariants : Invariant.result;
  observer_prefix_ok : bool option;
  rolled_back : int;
  cascaded : int;
  gc_freed : int;
  errors : string list;
  cycle_totals : int array;
}

type model_tally = {
  model : FM.t option;
  m_runs : int;
  m_crashes : int;
  m_consistent : int;
  m_clean : int;
  m_degraded : int;
  m_unrecoverable : int;
  m_violations : int;
  m_unexpected : int;
}

type shrunk = {
  original : string;
  minimized : string;
  attempts : int;
  final_iterations : int;
  final_crash_step : int;
}

type summary = {
  spec : spec;
  outcomes : run_outcome list;
  total : int;
  crashes : int;
  consistent_recoveries : int;
  violations : int;
  unexpected_violations : int;
  per_model : model_tally list;
  shrunk : shrunk option;
}

let default_spec base =
  {
    base;
    runs = 100;
    min_step = 500;
    max_step = 150_000;
    campaign_seed = 99;
    fault_models = [ None ];
    exhaustive = None;
    run_seed = None;
    shrink = false;
    repro_tag = "";
  }

let model_label = function None -> "policy" | Some m -> FM.to_string m

(* A complete `tsp faults` invocation replaying exactly this run: the
   exhaustive enumerator with a one-step window and a pinned per-run
   seed is the single-run special case of a campaign. *)
let repro_of spec ~fault ~seed ~crash_step =
  let b = spec.base in
  let buf = Buffer.create 160 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "tsp faults --variant %s --hardware '%s' --failure %s"
    (Machine.variant_to_cli_string b.Runner.variant)
    b.Runner.hardware.Tsp_core.Hardware.name
    (Tsp_core.Failure_class.to_string b.Runner.failure);
  (match Nvm.Config.to_cli_string b.Runner.platform with
  | "desktop" -> ()
  | p -> add " --platform %s" p);
  (match b.Runner.workload with
  | Runner.Transfers _ -> add " --transfers"
  | Runner.Wide { value_words; _ } -> add " --wide %d" value_words
  | Runner.Counters _ | Runner.Mixed _ | Runner.Ycsb _ -> ());
  if b.Runner.journal then add " --journal";
  add " --threads %d --iterations %d" b.Runner.threads b.Runner.iterations;
  (match fault with
  | Some fm -> add " --fault-model %s" (FM.to_string fm)
  | None -> ());
  add " --campaign-seed %d" spec.campaign_seed;
  add " --exhaustive --from %d --window 1 --run-seed %d" crash_step seed;
  if not (String.equal spec.repro_tag "") then add " %s" spec.repro_tag;
  Buffer.contents buf

let one spec ~fault ~seed ~crash_step =
  let repro = repro_of spec ~fault ~seed ~crash_step in
  let config =
    {
      spec.base with
      Runner.seed;
      crash_at_step = Some crash_step;
      fault_model = fault;
    }
  in
  match Runner.run config with
  | r ->
      let crashed =
        match r.Runner.outcome with Runner.Crashed _ -> true | _ -> false
      in
      let consistent = Runner.consistent r in
      let recovery_verdict =
        Option.map (fun c -> c.Runner.recovery_verdict) r.Runner.crash
      in
      (* Judging rules, on the model the crash ran (a run that never
         crashed ran none): the binary models promise full consistency;
         the adversarial models only promise graceful degradation —
         recovery must come back with a structured verdict, and only
         Bit_rot is allowed to reach [Unrecoverable] (it alone can hit
         region headers).  A violation is expected only where the model
         drops every dirty line. *)
      let model =
        Option.map
          (fun c -> c.Runner.rescue_bill.Tsp_core.Crash_executor.fault)
          r.Runner.crash
      in
      let violation =
        match model with
        | Some m when FM.adversarial m -> (
            match (recovery_verdict, m) with
            | Some (Atlas.Recovery.Unrecoverable _), FM.Bit_rot _ -> false
            | Some (Atlas.Recovery.Unrecoverable _), _ -> true
            | _ -> false)
        | _ -> not consistent
      in
      let expected = violation && model = Some FM.Full_discard in
      let observer_prefix_ok =
        Option.bind r.Runner.crash (fun c ->
            Option.map
              (fun o -> o.Tsp_core.Recovery_observer.prefix_ok)
              c.Runner.observer)
      in
      let rolled_back, cascaded =
        match r.Runner.crash with
        | Some { Runner.atlas_recovery = Some a; _ } ->
            (a.Atlas.Recovery.updates_applied, a.Atlas.Recovery.cascaded)
        | _ -> (0, 0)
      in
      let gc_freed =
        match r.Runner.crash with
        | Some { Runner.gc = Some g; _ } -> g.Pheap.Heap_gc.freed_objects
        | _ -> 0
      in
      let errors =
        match r.Runner.crash with
        | Some c -> c.Runner.recovery_errors
        | None -> []
      in
      {
        seed;
        crash_step;
        fault;
        crashed;
        consistent;
        graceful = true;
        recovery_verdict;
        violation;
        expected;
        repro;
        iterations_done = r.Runner.iterations_done;
        invariants = r.Runner.invariants;
        observer_prefix_ok;
        rolled_back;
        cascaded;
        gc_freed;
        errors;
        cycle_totals = Nvm.Stats.cycle_totals r.Runner.device_stats;
      }
  | exception exn ->
      (* An escaped exception is the one thing no fault model tolerates:
         the run is recorded as a non-graceful, unexpected violation
         instead of killing the campaign. *)
      let msg = Printexc.to_string exn in
      {
        seed;
        crash_step;
        fault;
        crashed = true;
        consistent = false;
        graceful = false;
        recovery_verdict = None;
        violation = true;
        expected = false;
        repro;
        iterations_done = 0;
        invariants = Invariant.failed ("raised: " ^ msg);
        observer_prefix_ok = None;
        rolled_back = 0;
        cascaded = 0;
        gc_freed = 0;
        errors = [ "raised: " ^ msg ];
        cycle_totals =
          Array.make (Array.length Nvm.Stats.cycle_category_names) 0;
      }

(* Greedy bounded shrinking: try to halve the crash step and the
   iteration count (and to collapse Bit_rot to a single flip) while the
   violation persists; each accepted candidate restarts the pass. *)
let minimize spec o =
  let budget = ref 40 in
  let attempts = ref 0 in
  let still_fails ~iterations ~crash_step ~fault =
    if !budget <= 0 then false
    else begin
      decr budget;
      incr attempts;
      let s =
        { spec with base = { spec.base with Runner.iterations } }
      in
      (one s ~fault ~seed:o.seed ~crash_step).violation
    end
  in
  let iterations = ref spec.base.Runner.iterations in
  let crash_step = ref o.crash_step in
  let fault = ref o.fault in
  (match !fault with
  | Some (FM.Bit_rot { flips }) when flips > 1 ->
      let cand = Some (FM.Bit_rot { flips = 1 }) in
      if still_fails ~iterations:!iterations ~crash_step:!crash_step ~fault:cand
      then fault := cand
  | _ -> ());
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    let cand_step = max 1 (!crash_step / 2) in
    if
      cand_step < !crash_step
      && still_fails ~iterations:!iterations ~crash_step:cand_step
           ~fault:!fault
    then begin
      crash_step := cand_step;
      progress := true
    end;
    let cand_iters = max 1 (!iterations / 2) in
    if
      cand_iters < !iterations
      && still_fails ~iterations:cand_iters ~crash_step:!crash_step
           ~fault:!fault
    then begin
      iterations := cand_iters;
      progress := true
    end
  done;
  let min_spec =
    { spec with base = { spec.base with Runner.iterations = !iterations } }
  in
  {
    original = o.repro;
    minimized =
      repro_of min_spec ~fault:!fault ~seed:o.seed ~crash_step:!crash_step;
    attempts = !attempts;
    final_iterations = !iterations;
    final_crash_step = !crash_step;
  }

(* One ledger row: the outcomes of [model]'s runs, bucketed by recovery
   verdict and judgement.  Public so the verdict bookkeeping (including
   the [Unrecoverable] bucket, which only Bit_rot may legitimately
   reach) is testable on hand-built outcomes. *)
let tally ~model outcomes =
  let mine = List.filter (fun o -> o.fault = model) outcomes in
  let c p = List.length (List.filter p mine) in
  {
    model;
    m_runs = List.length mine;
    m_crashes = c (fun o -> o.crashed);
    m_consistent = c (fun o -> o.crashed && o.consistent);
    m_clean = c (fun o -> o.recovery_verdict = Some Atlas.Recovery.Clean);
    m_degraded =
      c (fun o ->
          match o.recovery_verdict with
          | Some (Atlas.Recovery.Degraded _) -> true
          | _ -> false);
    m_unrecoverable =
      c (fun o ->
          match o.recovery_verdict with
          | Some (Atlas.Recovery.Unrecoverable _) -> true
          | _ -> false);
    m_violations = c (fun o -> o.violation);
    m_unexpected = c (fun o -> o.violation && not o.expected);
  }

let run ?jobs spec =
  Result.iter_error
    (fun why -> invalid_arg ("Fault_injector: " ^ why))
    (Runner.validate spec.base);
  let models =
    match spec.fault_models with [] -> [ None ] | ms -> ms
  in
  (* Draw every run's parameters before fanning out, so the schedule is
     a pure function of the spec regardless of [jobs].  The sampled
     stream continues across models, and a single-model sampled
     campaign draws exactly what the pre-fault-model code drew. *)
  let params =
    match spec.exhaustive with
    | Some { from_step; window; stride } ->
        let stride = max 1 stride in
        let seed = Option.value spec.run_seed ~default:spec.campaign_seed in
        let steps = (window + stride - 1) / stride in
        List.concat_map
          (fun m ->
            List.init steps (fun i -> (m, seed, from_step + (i * stride))))
          models
    | None ->
        let rng = Rng.create ~seed:spec.campaign_seed in
        List.concat_map
          (fun m ->
            List.init spec.runs (fun i ->
                let seed = 10_000 + (13 * i) + Rng.int rng 7 in
                let crash_step =
                  spec.min_step
                  + Rng.int rng (max 1 (spec.max_step - spec.min_step))
                in
                (m, seed, crash_step)))
          models
  in
  let outcomes =
    Parallel.map ?jobs
      (fun (fault, seed, crash_step) -> one spec ~fault ~seed ~crash_step)
      params
  in
  let count p = List.length (List.filter p outcomes) in
  let crashes = count (fun o -> o.crashed) in
  let consistent_recoveries = count (fun o -> o.crashed && o.consistent) in
  let violations = count (fun o -> o.violation) in
  let unexpected_violations =
    count (fun o -> o.violation && not o.expected)
  in
  let per_model = List.map (fun m -> tally ~model:m outcomes) models in
  let shrunk =
    if not spec.shrink then None
    else
      let pick =
        match
          List.find_opt (fun o -> o.violation && not o.expected) outcomes
        with
        | Some o -> Some o
        | None -> List.find_opt (fun o -> o.violation) outcomes
      in
      Option.map (minimize spec) pick
  in
  {
    spec;
    outcomes;
    total = List.length params;
    crashes;
    consistent_recoveries;
    violations;
    unexpected_violations;
    per_model;
    shrunk;
  }

let all_consistent s =
  s.violations = 0 && List.for_all (fun o -> o.consistent) s.outcomes

let violation_rate s =
  if s.crashes = 0 then 0. else float_of_int s.violations /. float_of_int s.crashes

(* Device cycles summed across every run in the campaign.  Each outcome
   carries its own per-category totals (recorded inside whichever
   [Parallel.map] domain ran it), so the sum is jobs-invariant. *)
let breakdown s =
  Nvm.Stats.sum_cycle_totals (List.map (fun o -> o.cycle_totals) s.outcomes)

(* The deterministic one-line diagnosis of a violating outcome, shared
   by the summary printer, the failure signature and the artifact. *)
let failure_detail o =
  if not o.graceful then
    match o.errors with e :: _ -> e | [] -> "raised"
  else if not o.invariants.Invariant.ok then
    match
      List.find_opt
        (fun (c : Invariant.check) -> not c.Invariant.ok)
        o.invariants.Invariant.checks
    with
    | Some c -> c.Invariant.name ^ ": " ^ c.Invariant.detail
    | None -> "inconsistent"
  else "inconsistent recovery"

(* Normalized failure signature: class x fault model x normalized
   diagnosis x failing-check shape — never the seed, crash step or any
   cycle count, so the same bug at two crash points (or under two
   campaign seeds) dedupes to one identity. *)
let signature_of o =
  if not o.violation then None
  else
    let klass =
      if not o.graceful then "raise"
      else
        match o.recovery_verdict with
        | Some (Atlas.Recovery.Unrecoverable _) -> "unrecoverable"
        | _ ->
            if not o.invariants.Invariant.ok then "invariant"
            else "inconsistent"
    in
    let failing =
      List.length
        (List.filter
           (fun (c : Invariant.check) -> not c.Invariant.ok)
           o.invariants.Invariant.checks)
    in
    Some
      (Obs.Signature.make ~klass ~phase:(model_label o.fault)
         ~invariant:(failure_detail o)
         ~shape:(Obs.Signature.shape_of_count failing))

let distinct_signatures s =
  Obs.Signature.tally (List.filter_map signature_of s.outcomes)

(* One verdict-ledger line per fault model; the exact string is an
   identity witness (the replay gate compares it byte-for-byte), so it
   is built here and reused verbatim by [pp_summary] and the artifact. *)
let ledger_row t =
  Printf.sprintf
    "%-20s %4d runs, %4d crashed, %4d consistent; verdicts \
     clean/degraded/unrecoverable %d/%d/%d; %d violations (%d unexpected)"
    (model_label t.model) t.m_runs t.m_crashes t.m_consistent t.m_clean
    t.m_degraded t.m_unrecoverable t.m_violations t.m_unexpected

let pp_summary ppf s =
  let total_rb = List.fold_left (fun a o -> a + o.rolled_back) 0 s.outcomes in
  let total_casc = List.fold_left (fun a o -> a + o.cascaded) 0 s.outcomes in
  let total_gc = List.fold_left (fun a o -> a + o.gc_freed) 0 s.outcomes in
  Fmt.pf ppf
    "@[<v>campaign: %s, %s vs %s on %s%s@ %d runs: %d crashed, %d recovered \
     consistent, %d VIOLATIONS (%d unexpected, rate %.1f%%)@ rollback work: \
     %d updates, %d cascaded sections, %d objects GC'd"
    (Runner.variant_to_string s.spec.base.Runner.variant)
    (Tsp_core.Failure_class.to_string s.spec.base.Runner.failure)
    s.spec.base.Runner.hardware.Tsp_core.Hardware.name
    s.spec.base.Runner.platform.Nvm.Config.name
    (match s.spec.exhaustive with
    | Some e ->
        Printf.sprintf " (exhaustive steps [%d,%d) stride %d)" e.from_step
          (e.from_step + e.window) e.stride
    | None -> "")
    s.total s.crashes s.consistent_recoveries s.violations
    s.unexpected_violations
    (100. *. violation_rate s)
    total_rb total_casc total_gc;
  Fmt.pf ppf "@ device cycles across all runs:@ %a" Nvm.Stats.pp_breakdown_totals
    (breakdown s);
  List.iter (fun t -> Fmt.pf ppf "@ %s" (ledger_row t)) s.per_model;
  (match distinct_signatures s with
  | [] -> ()
  | sigs ->
      Fmt.pf ppf "@ distinct failure signatures: %d" (List.length sigs);
      List.iter
        (fun (sg, n) -> Fmt.pf ppf "@   %a x%d" Obs.Signature.pp sg n)
        sigs);
  let shown = ref 0 in
  let hidden = ref 0 in
  List.iter
    (fun o ->
      if o.violation then
        if !shown >= 20 then incr hidden
        else begin
          incr shown;
          Fmt.pf ppf
            "@ VIOLATION (%s) fault=%s campaign-seed=%d seed=%d step=%d: %s@ \
            \  repro: %s"
            (if o.expected then "expected" else "UNEXPECTED")
            (model_label o.fault) s.spec.campaign_seed o.seed o.crash_step
            (failure_detail o) o.repro
        end)
    s.outcomes;
  if !hidden > 0 then Fmt.pf ppf "@ ... and %d more violations" !hidden;
  (match s.shrunk with
  | None -> ()
  | Some sh ->
      Fmt.pf ppf
        "@ shrunk (%d probe runs): crash step %d, %d iterations@ \
        \  minimal repro: %s"
        sh.attempts sh.final_crash_step sh.final_iterations sh.minimized);
  Fmt.pf ppf "@]"

(* The campaign's slice of a results artifact: spec echo, verdict
   ledger (reusing [ledger_row] verbatim, so the replay gate's
   string-identity covers the same bytes a human reads), every
   violation with its normalized signature and reproducer, and the
   jobs-invariant cycle breakdown.  Seeds and crash steps are drawn
   before the parallel fan-out, so including them keeps the document
   byte-identical across --jobs. *)
let to_json j s =
  let module J = Obs.Json in
  let b = s.spec.base in
  J.obj_open j;
  J.key j "variant";
  J.str j (Machine.variant_to_cli_string b.Runner.variant);
  J.key j "hardware";
  J.str j b.Runner.hardware.Tsp_core.Hardware.name;
  J.key j "failure";
  J.str j (Tsp_core.Failure_class.to_string b.Runner.failure);
  J.key j "platform";
  J.str j b.Runner.platform.Nvm.Config.name;
  J.key j "threads";
  J.int j b.Runner.threads;
  J.key j "iterations";
  J.int j b.Runner.iterations;
  J.key j "campaign_seed";
  J.int j s.spec.campaign_seed;
  J.key j "fault_models";
  J.arr_open j;
  List.iter (fun m -> J.str j (model_label m)) s.spec.fault_models;
  J.arr_close j;
  (match s.spec.exhaustive with
  | Some e ->
      J.key j "crash_window";
      J.obj_open j;
      J.key j "from";
      J.int j e.from_step;
      J.key j "window";
      J.int j e.window;
      J.key j "stride";
      J.int j e.stride;
      J.obj_close j
  | None ->
      J.key j "runs";
      J.int j s.spec.runs;
      J.key j "crash_window";
      J.obj_open j;
      J.key j "min_step";
      J.int j s.spec.min_step;
      J.key j "max_step";
      J.int j s.spec.max_step;
      J.obj_close j);
  J.key j "total";
  J.int j s.total;
  J.key j "crashes";
  J.int j s.crashes;
  J.key j "consistent_recoveries";
  J.int j s.consistent_recoveries;
  J.key j "violations";
  J.int j s.violations;
  J.key j "unexpected_violations";
  J.int j s.unexpected_violations;
  J.key j "ledger";
  J.arr_open j;
  List.iter (fun t -> J.str j (ledger_row t)) s.per_model;
  J.arr_close j;
  J.key j "signatures";
  Obs.Signature.tally_to_json j (distinct_signatures s);
  J.key j "violation_rows";
  J.arr_open j;
  List.iter
    (fun o ->
      if o.violation then begin
        J.obj_open j;
        J.key j "fault";
        J.str j (model_label o.fault);
        J.key j "seed";
        J.int j o.seed;
        J.key j "crash_step";
        J.int j o.crash_step;
        J.key j "expected";
        J.bool j o.expected;
        J.key j "detail";
        J.str j (failure_detail o);
        (match signature_of o with
        | Some sg ->
            J.key j "signature";
            J.str j sg.Obs.Signature.hash
        | None -> ());
        J.key j "repro";
        J.str j o.repro;
        J.obj_close j
      end)
    s.outcomes;
  J.arr_close j;
  (match s.shrunk with
  | None -> ()
  | Some sh ->
      J.key j "shrunk";
      J.obj_open j;
      J.key j "original";
      J.str j sh.original;
      J.key j "minimized";
      J.str j sh.minimized;
      J.key j "attempts";
      J.int j sh.attempts;
      J.key j "final_iterations";
      J.int j sh.final_iterations;
      J.key j "final_crash_step";
      J.int j sh.final_crash_step;
      J.obj_close j);
  J.key j "cycle_totals";
  J.arr_open j;
  Array.iter (fun c -> J.int j c) (breakdown s);
  J.arr_close j;
  J.obj_close j
