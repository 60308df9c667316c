(** The fence-complexity frontier (ROADMAP item 1, EXPERIMENTS E23):
    every map design measured on one identical counter workload and
    charted as dynamic psync complexity {e per completed operation} vs
    throughput vs crash-recovery verdict, with the strict
    durable-linearizability verdict (and its conservative-accept
    ledger) alongside.

    Per variant, two deterministic legs: a traced crash-free run
    (throughput + exact psync counters) and a single exhaustive-checker
    crash point under TSP rescue semantics (DL + recovery verdicts).
    Rows are byte-identical for any [jobs]. *)

type row = {
  variant : Machine.variant;
  miters : float;
  elapsed_cycles : int;  (** simulated cycles of the crash-free leg *)
  completed_ops : int;
  ocs_commits : int;  (** 0 for the commit-free designs *)
  flushes_per_op : float;
  fences_per_op : float;
  appends_per_op : float;
  dl_explained : bool;
  dl_capped : int;
      (** keys accepted via the subset-sum cap rather than proved *)
  recovery_verdict : Atlas.Recovery.verdict option;
}

val threads : int
(** 4: the worker threads of every frontier run. *)

val iterations : int
(** 2000: the iterations each worker runs. *)

val crash_step : int
(** 40 000: the step each design's checker leg crashes at. *)

val run :
  ?jobs:int ->
  ?variants:Machine.variant list ->
  ?seed:int ->
  platform:Nvm.Config.t ->
  unit ->
  row list
(** Each of [variants] (default: the six designs) runs {!threads} x
    {!iterations}; its crash point is {!crash_step}. *)

val find : row list -> Machine.variant -> row option

val nvtraverse_beats_logflush : row list -> bool
(** The tentpole claim: NVTraverse shows strictly fewer flushes per op
    than log-flush at equal or better throughput. *)

val pp : row list Fmt.t

val to_json : Obs.Json.t -> row list -> unit
(** Emit the frontier as a JSON array (one object per design row) —
    the E23 chart as results-artifact data.  Byte-identical across
    [--jobs]. *)
