(** Durable-linearizability checking campaigns: the workload-layer
    driver for [lib/check].

    For every enumerated crash point the campaign runs the workload with
    the history recorder interposed on the map ({!Runner.config}'s
    [instrument] hook), crashes it, recovers via the normal pipeline
    ({!Atlas.Recovery} for the mutex variants, re-attachment for the
    skip list), and asks {!Check.Dl} whether the recovered entries are
    explained by some linearization of a prefix-closed subset of the
    recorded history — completed operations must survive, pending ones
    may take effect or not, nothing else may appear.

    The strict verdict is only sound under rescue-class crash semantics
    (every acknowledged store reaches the durable medium), so {!run}
    rejects specs whose crash would execute discard semantics or an
    adversarial fault model other than [Full_rescue].

    Enumeration is {!Fault_injector}'s: the {!Runner.crash_steps} of a
    window, no randomness, parameters fixed before the parallel fan-out
    — so verdicts and the rendered summary are byte-identical for any
    [jobs] value (pinned by [test/test_checker.ml]).

    A seeded mutation harness rides along: {!non_durable} plants a
    wrapper that silently swallows a deterministic, seeded selection of
    write operations — completed in the history, absent from NVM — the
    exact bug class the checker exists to catch. *)

type spec = {
  base : Runner.config;
  from_step : int;
  window : int;  (** crash steps [from_step, from_step + window) *)
  stride : int;  (** enumerate every [stride]-th step (min 1) *)
  mutate : (Tsp_maps.Map_intf.ops -> Tsp_maps.Map_intf.ops) option;
      (** applied {e under} the recorder: the history sees the intended
          operations, the map sees what the mutant lets through *)
  mutate_label : string;  (** shown in the summary header; "" for none *)
}

val default_spec : Runner.config -> spec
(** [from_step = 500], [window = 2000], [stride = 100], no mutation. *)

type point = {
  crash_step : int;  (** requested crash step *)
  crashed : bool;  (** false: the run completed before the crash point *)
  ops_recorded : int;
  ops_completed : int;
  ops_pending : int;
  dl : Check.Dl.verdict;
  recovery_verdict : Atlas.Recovery.verdict option;
  cycle_totals : int array;
      (** per-category device cycles ({!Nvm.Stats.cycle_totals}) of this
          point's run *)
}

type summary = {
  spec : spec;
  points : point list;  (** in crash-step order *)
  total : int;
  crashes : int;
  explained : int;
  flagged : int;  (** points whose recovered state no linearization explains *)
  capped_points : int;
      (** points where at least one key hit {!Check.Dl.subset_limit} and
          was accepted conservatively rather than proved *)
  capped_keys : int;  (** total capped keys across all points *)
  clean_recoveries : int;
  degraded_recoveries : int;
}

val initial_entries : Runner.config -> (int * int64) list
(** The recording baseline: {!Runner.initial_entries}, the map a run
    holds when its threads start, [populate_objects] ballast included.
    @raise Invalid_argument for workloads the checker does not support
    (wide values and transfers bypass the recorded op interface). *)

val dl_envelope :
  hardware:Tsp_core.Hardware.t -> failure:Tsp_core.Failure_class.t ->
  Nvm.Fault_model.t option -> (unit, string) result
(** [Error reason] unless strict durable linearizability is sound to
    expect of the crash: a TSP policy verdict, or [Full_rescue]. *)

val non_durable :
  seed:int -> every:int -> Tsp_maps.Map_intf.ops -> Tsp_maps.Map_intf.ops
(** The planted bug: a variant whose writes are not durably linearizable.
    Roughly one in [every] destructive operations ([set]/[incr]/[remove],
    chosen by a seeded RNG stream so runs are reproducible) is silently
    swallowed — acknowledged to the caller, never issued to the map.  A
    fresh RNG is created per call, so each run in a parallel campaign
    mutates deterministically. *)

val capped_of : point -> int
(** Subset-sum-capped key count of a point's DL verdict: how many of its
    keys were accepted conservatively rather than proved. *)

val run : ?jobs:int -> spec -> summary
(** Execute the campaign.
    @raise Invalid_argument if the spec's workload or crash semantics
    are outside the strict checker's soundness envelope (see above). *)

val clean : summary -> bool
(** No flagged points. *)

val pp_summary : summary Fmt.t
(** Header, per-verdict ledger, and one line per flagged point (first 20)
    with the per-key diagnoses.  Deterministic: independent of [jobs]
    and of wall-clock. *)

val to_json : Obs.Json.t -> summary -> unit
(** Emit this campaign's results-artifact object: spec echo, totals,
    deduped signatures and per-point outcome rows.  Byte-identical
    across [--jobs]. *)
