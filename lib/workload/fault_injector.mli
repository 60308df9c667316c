(** Systematic crash-point campaigns over the workload runner
    (experiments E3 and E9, extended to the adversarial fault models of
    E16).

    A campaign executes many independent crash-and-recover runs and
    verifies every one.  Two enumeration modes:

    - {e sampled} (the default): [runs] crash points drawn from the
      campaign RNG inside [\[min_step, max_step\]], with a fresh per-run
      seed — the paper's SIGKILL methodology with an explicit, finer
      crash point;
    - {e exhaustive}: every [stride]-th simulator step inside a window,
      with a single pinned seed — no randomness at all, so coverage of a
      step range is complete and the schedule is a pure function of the
      spec.

    Either mode can run each crash point under a list of
    {!Nvm.Fault_model.t}s ([None] meaning the TSP-verdict-derived binary
    behaviour).  The binary models are judged on full consistency; the
    adversarial models are judged on {e graceful degradation}: recovery
    must return a structured verdict rather than raise, and only
    [Bit_rot] may report [Unrecoverable] (it alone can corrupt region
    headers).  Every violating run carries a complete, copy-pasteable
    [tsp faults] reproducer, and failing configurations can be shrunk to
    a minimal one automatically.

    All parameters are drawn from the campaign RNG {e before} fanning
    the runs out over domains, so results are independent of [jobs]. *)

type exhaustive = Runner.window = {
  from_step : int;
  window : int;
  stride : int;
}
(** The crash window exhaustive mode enumerates, {!Runner.crash_steps}. *)

type spec = {
  base : Runner.config;  (** crash point and seed are overridden per run *)
  runs : int;  (** sampled mode: crash points per fault model *)
  min_step : int;  (** earliest crash step to draw *)
  max_step : int;  (** latest crash step to draw *)
  campaign_seed : int;
  fault_models : Nvm.Fault_model.t option list;
      (** models to run every crash point under; [None] = binary
          TSP-verdict behaviour.  Default [[None]]. *)
  exhaustive : exhaustive option;  (** [Some _] selects exhaustive mode *)
  run_seed : int option;
      (** exhaustive mode only: the pinned per-run seed (defaults to
          [campaign_seed]) *)
  shrink : bool;  (** shrink the first violation to a minimal reproducer *)
  repro_tag : string;
      (** extra flags appended verbatim to generated reproducers (e.g.
          ["--smoke"]), so they replay under the same preset *)
}

type run_outcome = {
  seed : int;
  crash_step : int;
  fault : Nvm.Fault_model.t option;
  crashed : bool;  (** false when the run finished before the crash point *)
  consistent : bool;
  graceful : bool;  (** the run returned instead of raising *)
  recovery_verdict : Atlas.Recovery.verdict option;
  violation : bool;  (** this run broke its fault model's promise *)
  expected : bool;
      (** the violation is the documented behaviour of the model the
          crash ran ({!Tsp_core.Policy.crash_model} of the run's config):
          [Full_discard], e.g. an unfortified variant without TSP.  A
          run that never crashed ran no model, so its violation is
          never expected *)
  repro : string;  (** complete [tsp faults] invocation replaying this run *)
  iterations_done : int;
  invariants : Invariant.result;
  observer_prefix_ok : bool option;
  rolled_back : int;  (** undo updates applied during recovery *)
  cascaded : int;
  gc_freed : int;
  errors : string list;
  cycle_totals : int array;
      (** per-category device cycles ({!Nvm.Stats.cycle_totals}) of this
          run, recorded in its own domain so campaign aggregation is
          jobs-invariant *)
}

type model_tally = {
  model : Nvm.Fault_model.t option;
  m_runs : int;
  m_crashes : int;
  m_consistent : int;
  m_clean : int;  (** crashed runs whose recovery verdict was [Clean] *)
  m_degraded : int;
  m_unrecoverable : int;
  m_violations : int;
  m_unexpected : int;
}

type shrunk = {
  original : string;  (** reproducer of the violation as found *)
  minimized : string;  (** reproducer after shrinking *)
  attempts : int;  (** probe runs the shrinker spent *)
  final_iterations : int;
  final_crash_step : int;
}

type summary = {
  spec : spec;
  outcomes : run_outcome list;
  total : int;
  crashes : int;
  consistent_recoveries : int;
  violations : int;  (** runs that broke their fault model's promise *)
  unexpected_violations : int;
      (** violations not explained by the configuration — these should
          fail a CI campaign *)
  per_model : model_tally list;  (** one ledger row per fault model *)
  shrunk : shrunk option;
}

val default_spec : Runner.config -> spec
(** 100 sampled runs, crash step drawn from [500, 150000], campaign
    seed 99, binary fault behaviour, no shrinking. *)

val model_label : Nvm.Fault_model.t option -> string
(** ["policy"] for [None], {!Nvm.Fault_model.to_string} otherwise. *)

val one :
  spec ->
  fault:Nvm.Fault_model.t option ->
  seed:int ->
  crash_step:int ->
  run_outcome
(** Execute and judge a single crash-and-recover run.  Never raises: an
    escaped exception is recorded as a non-graceful, unexpected
    violation. *)

val tally : model:Nvm.Fault_model.t option -> run_outcome list -> model_tally
(** One verdict-ledger row: bucket [model]'s outcomes by recovery
    verdict ([Clean]/[Degraded]/[Unrecoverable]) and judgement.  This is
    exactly what {!run} computes per fault model; exposed so the
    bookkeeping is testable on hand-built outcomes. *)

val run : ?jobs:int -> spec -> summary
(** Execute the campaign.  Crash points and per-run seeds are drawn from
    the campaign RNG up front, so the schedule — and every outcome — is
    a pure function of [spec] regardless of [jobs] (default: host core
    count), which only fans the independent runs across domains.
    @raise Invalid_argument when {!Runner.validate} rejects the base
    config. *)

val all_consistent : summary -> bool
(** No violations, and every run (crashed or not) passed its
    invariants. *)

val violation_rate : summary -> float
(** Violations as a fraction of crashed runs. *)

val pp_summary : summary Fmt.t
(** Campaign header, per-fault-model verdict ledger, distinct failure
    signatures, one line per violation with its reproducer (first 20),
    and the shrinking result if any. *)

val signature_of : run_outcome -> Obs.Signature.t option
(** Normalized failure signature of a violating outcome ([None] for
    clean runs): failure class x fault model x normalized diagnosis x
    failing-check shape.  Stable across seeds, crash steps and cycle
    counts — the same bug at two crash points yields the same
    signature. *)

val to_json : Obs.Json.t -> summary -> unit
(** Emit this campaign's results-artifact object: spec echo, totals,
    the verdict ledger, deduped signatures, per-violation rows with
    reproducers, the shrinking result and the jobs-invariant cycle
    breakdown. *)
