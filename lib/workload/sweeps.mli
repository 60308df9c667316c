(** Parameter sweeps: the prose claims of the paper made measurable, plus
    the ablations DESIGN.md calls out (experiments E4, E7, E8 and the
    cache ablation).  The paper itself contains no figures; each sweep
    here regenerates a claim as a data series. *)

type point = { x : float; values : (string * float) list }
(** One x value and each series' value there; every point of a table
    names the same series in the same order. *)

type series_table = { title : string; x_label : string; points : point list }

(** Every sweep below accepts [?jobs]: its points are independent
    deterministic cells, fanned across that many domains via
    {!Parallel.map} (default: host core count).  The resulting series is
    identical for any job count; only wall-clock time changes. *)

val flush_latency :
  ?iterations:int -> ?latencies:int list -> ?jobs:int -> unit -> series_table
(** E7: throughput of Atlas log-only (TSP) vs log+flush (no TSP) as the
    NVM flush latency grows.  TSP's advantage is the flush count times
    this latency, so the gap must widen — quantifying "emerging
    architectures sometimes reward procrastination handsomely". *)

val thread_scaling : ?iterations:int -> ?jobs:int -> unit -> series_table
(** E8: all four Table 1 variants at 1, 2, 4, 8 and 16 threads. *)

val log_cost_ablation :
  ?iterations:int -> ?log_cycles:int list -> ?jobs:int -> unit -> series_table
(** E4: overhead factor (native / fortified) of log-only and log+flush as
    the per-entry logging cost grows.  Locates the regime in which the
    paper's earlier application study saw 3x (log) and 5x (log+flush). *)

val cache_ablation : ?iterations:int -> ?jobs:int -> unit -> series_table
(** Design ablation: a smaller cache evicts (and thus writes back) dirty
    lines sooner, narrowing the window TSP must rescue — but also raising
    miss costs.  Reports log-only throughput and the dirty lines left at
    a crash point per cache size (512, 2048, 8192 and 32768 lines). *)

val render : series_table -> Format.formatter -> unit

val read_ratio : ?iterations:int -> ?jobs:int -> unit -> series_table
(** E12: fortification overhead vs the share of read-only iterations
    (0, 25, 50, 75 and 90%).  Undo logging and flushing act only on
    stores, so both overheads must fall monotonically as reads
    dominate. *)

(** {1 E11: the procrastinator's ledger}

    TSP's bargain quantified for one crash: how many synchronous flushes
    the prevention strategy paid before the crash, versus how many dirty
    lines the procrastination strategy had to rescue at crash time and
    what its recovery pipeline cost. *)

type ledger = {
  crash_step : int;
  runtime_flushes_no_tsp : int;
  rescued_lines_tsp : int;
  recovery_cycles_tsp : int;
  recovery_cycles_no_tsp : int;
  flushes_avoided_per_rescued_line : float;
}

val procrastination_ledger :
  ?iterations:int -> ?crash_step:int -> ?jobs:int -> unit -> ledger

val pp_ledger : ledger Fmt.t

val ycsb_table :
  ?iterations:int ->
  ?records:int ->
  ?jobs:int ->
  Ycsb.preset ->
  Ycsb.preset * int * string list list
(** Run one YCSB preset across the map variants (hash map in three Atlas
    modes, the B+-tree, the skip list) and tabulate throughput plus
    per-operation latency percentiles in simulated cycles. *)

val render_ycsb :
  Ycsb.preset * int * string list list -> Format.formatter -> unit
