(** Operation counters and the simulated clock of an NVM device.

    Every primitive operation of {!Pmem} bumps a counter here.  The
    [clock] field only accumulates cycles for operations performed outside
    a scheduler (e.g. setup and recovery code); during a multi-threaded
    simulation the per-thread virtual clocks live in the scheduler and the
    device merely reports each operation's cost through its step hook. *)

type t = {
  mutable loads : int;
  mutable load_hits : int;
  mutable load_misses : int;
  mutable stores : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable flushes : int;
  mutable fences : int;
  mutable writebacks : int;
      (** lines (or, for torn lines, word prefixes) that moved bytes to
          the durable image — by eviction, flush, or crash-time rescue.
          A zero-word tear moves nothing and is not counted. *)
  mutable crashes : int;
  mutable rescued_lines : int;  (** dirty lines saved by a TSP rescue *)
  mutable dropped_lines : int;  (** dirty lines lost in a non-TSP crash *)
  mutable torn_lines : int;
      (** rescued lines that landed word-torn ({!Fault_model.Torn_lines}) *)
  mutable flipped_bits : int;
      (** durable bits flipped post-crash ({!Fault_model.Bit_rot}) *)
  mutable clock : int;  (** cycles charged outside any scheduler *)
  mutable load_cycles : int;
  mutable store_cycles : int;
  mutable cas_cycles : int;
  mutable flush_cycles : int;
  mutable fence_cycles : int;
  mutable compute_cycles : int;  (** explicit {!Pmem.charge} work *)
}

val create : unit -> t
val reset : t -> unit

val total_ops : t -> int
(** Loads + stores + CAS + flushes + fences. *)

val hit_rate : t -> float
(** Fraction of loads and stores that hit the cache; [nan] if none. *)

val total_cycles : t -> int
(** Sum of all per-category cycle counters: everything the device ever
    charged, wherever the charge landed (thread clocks or [clock]). *)

val cycle_category_names : string array
(** Display names of the per-category cycle counters, in the order
    {!cycle_totals} reports them. *)

val cycle_totals : t -> int array
(** The per-category cycle counters as a fresh array (loads, stores,
    cas, flushes, fences, compute) — the element-wise-summable form
    used by campaign ledgers that aggregate across [Parallel.map]
    domains. *)

val sum_cycle_totals : int array list -> int array
(** Element-wise sum of {!cycle_totals} arrays: a campaign's ledger over
    its runs, independent of the domain each run executed in. *)

val pp : t Fmt.t

val pp_breakdown : t Fmt.t
(** One line per cycle category with its share of {!total_cycles} —
    the "where did the time go" view used by the overhead-decomposition
    report. *)

val pp_breakdown_totals : Format.formatter -> int array -> unit
(** {!pp_breakdown} over an explicit {!cycle_totals}-shaped array, for
    totals summed across many runs. *)
