(** Packed-integer event ring with online exposure accounting.

    The tracer is designed to be interposed on the simulator's hottest
    paths with two guarantees:

    - {b Zero overhead when off.}  Instrumented call sites hold a
      [Tracer.t option] (or an [option ref]) and do nothing but a match
      when it is [None]; the disabled paths stay allocation-free.
    - {b Deterministic when on.}  {!emit} only reads the three
      registered closures (virtual clock, thread id, dirty-line count)
      and writes into preallocated int arrays: no RNG draws, no
      simulated cycles charged, no heap allocation.  A traced run is
      sim-cycle byte-identical to an untraced one.

    Events land in a fixed-capacity ring (four ints per slot); once it
    wraps, the oldest events are overwritten.  Every summary statistic
    — per-code counts and cycle sums, the persistence-exposure
    envelope, per-phase recovery cycles — is accumulated online at emit
    time and therefore stays exact across wrap-around; only the raw
    event stream handed to the exporter is bounded by the ring. *)

type t

val create : ?ring_cap:int -> ?budget_lines:int -> unit -> t
(** [ring_cap] (default 65536) is rounded up to at least 8 slots.
    [budget_lines] is the WSP rescue budget in cache lines used by the
    exposure accounting; negative (the default) means "no budget",
    reported as unlimited headroom. *)

(** {1 Context closures}

    All three default to constant functions ([0], [-1] and [0]); the
    harness rewires them once per run. *)

val set_clock : t -> (unit -> int) -> unit
val set_tid : t -> (unit -> int) -> unit
val set_dirty : t -> (unit -> int) -> unit

(** {1 Emission} *)

val emit : t -> code:int -> a:int -> b:int -> unit
val phase_begin : t -> phase:int -> unit

val phase_end : t -> phase:int -> unit
(** Accumulates clock-delta cycles for [phase] since the matching
    {!phase_begin} and emits a {!Event.phase_end} carrying the delta.
    Unmatched ends are ignored. *)

val in_phase : t option -> phase:int -> (unit -> 'a) -> 'a
(** [in_phase tracer ~phase f] brackets [f] with {!phase_begin} and
    {!phase_end} when a tracer is attached, and just runs it otherwise.
    The phase closes even when [f] raises. *)

(** {1 Ring access} *)

val emitted : t -> int
(** Total events ever emitted. *)

val length : t -> int
(** Events still in the ring. *)

val dropped : t -> int
(** Events overwritten by wrap-around. *)

type event = {
  code : int;
  tid : int;
  dirty : int;
  ts : int;
  a : int;
  b : int;
}

val nth : t -> int -> event
(** [nth t 0] is the oldest surviving event.  Allocates; export-path
    only. *)

val iter : t -> (event -> unit) -> unit

(** {1 Online summaries} *)

val count : t -> int -> int
(** Emitted events with the given code (exact across wrap). *)

val cycles_of : t -> int -> int
(** Sum of the [b] argument for the given code — the op codes carry
    their charged cycle cost there. *)

val phase_cycles : t -> int -> int

type exposure = {
  samples : int;  (** Events contributing a dirty-line sample. *)
  peak_dirty : int;
  mean_dirty : float;
  last_dirty : int;
  budget_lines : int;  (** Negative when no budget was configured. *)
  duration : int;  (** Span of the monotone clock envelope. *)
  time_above_budget : int;
      (** Cycles (within [duration]) spent with more dirty lines than
          the budget could rescue — the paper's sufficiency margin,
          violated. *)
  dirty_hist : Hist.t;
      (** Per-sample dirty-lines distribution (every {!emit} records
          one sample), for p50/p99/p999 exposure quantiles; recording
          is allocation-free, so the no-alloc emit contract holds. *)
}

val exposure : t -> exposure

val dirty_hist : t -> Hist.t
(** The live histogram behind [exposure.dirty_hist]. *)

val pp_exposure : exposure Fmt.t
