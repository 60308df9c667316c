(** Deterministic discrete-event scheduler for simulated threads.

    Simulated threads are ordinary OCaml functions that run as effect
    fibers.  Each memory operation of the NVM device reports its cycle
    cost through {!step}; the scheduler charges it to the issuing thread's
    virtual clock, then suspends the fiber and resumes whichever runnable
    thread now has the {e smallest} virtual clock.  This models threads
    executing in parallel on their own cores: total simulated time is the
    maximum per-thread clock, and a thread that blocks on a mutex simply
    stops accumulating time until the owner hands the mutex over.

    Crash injection: [run ~crash_at_step:k] abruptly abandons {e every}
    thread once the [k]-th step has executed — the simulated analogue of
    delivering SIGKILL to a multithreaded process, which is exactly the
    fault-injection methodology of Section 5.1 of the paper.

    Determinism: scheduling decisions depend only on the seed, the spawn
    order and the costs reported, so a given (program, seed, crash point)
    triple always produces the same interleaving.

    One fast path: the pick of the thread to resume also yields the
    thread's {e horizon}, the smallest clock among the other runnable
    threads ([max_int] when it runs alone), and the run loop grants the
    thread a {!quantum}.  While a charge leaves the thread's clock below
    its horizon, suspending would only re-pick it, so the device charges
    the clock through the quantum instead of calling {!step}.  The
    horizon is left unset, and no quantum granted, when the pick draws
    a tie-break before reaching the thread in spawn order (see
    {{!section:pick}The pick}), and a mutex hand-off that wakes a
    waiter revokes the quantum.
    A quantum refuses the step that would reach the crash step.  Every
    observable — step counts, clocks, interleavings, crash states,
    trace events — is bit-identical with quanta on or off; see
    DESIGN.md, "The scheduler's one fast path". *)

type t

type outcome =
  | Completed  (** every thread ran to completion *)
  | Crashed of { at_step : int }
      (** crash injection fired; all threads were abandoned *)
  | Deadlocked of { blocked : string list }
      (** no runnable thread, but some are blocked on mutexes *)

val create : ?seed:int -> ?cost_jitter:int -> ?quantum:bool -> unit -> t
(** [cost_jitter] (default 0) adds a uniform random 0..jitter cycles to
    every step, perturbing interleavings between seeds — useful for
    fault-injection diversity.

    [quantum] (default [true]) lets the run loop grant quanta to the
    device layer (see {!quantum_handle}); [false] sends every charge
    through {!step}, one suspension per simulated operation.  The flag
    never changes simulated results: every simulation layer above this
    one uses the default, and tests compare it against the per-op
    reference, [~quantum:false]. *)

val spawn : t -> ?name:string -> (unit -> unit) -> int
(** Register a thread; returns its id (0, 1, ... in spawn order).  Must be
    called before {!run}. *)

val run : ?crash_at_step:int -> t -> outcome
(** Execute all spawned threads to completion, deadlock or crash.  An
    exception escaping a thread aborts the whole run and is re-raised.
    May be called only once per scheduler. *)

val step : t -> cost:int -> unit
(** Charge [cost] cycles (plus the jitter draw) to the calling thread,
    count the step, and yield.  Must be called from inside a simulated
    thread; this is what gets wired into [Pmem.set_step_hook].  The run
    loop revokes the thread's quantum when the yield reaches it, and
    grants the next one when it resumes a thread. *)

(** {2 Quanta}

    A quantum is the run loop's permission, given to the thread it
    resumes whenever that thread's horizon is set, for the device to
    charge the thread's clock without re-entering the scheduler: each
    load, store, CAS, flush, fence or compute charge then costs a
    comparison against the horizon, one against the crash step and two
    adds, on the thread's clock and on the step count
    ({!quantum_try_charge}), plus the jitter draw.

    Grant/revoke invariants (see DESIGN.md, "The scheduler's one fast
    path"): grants happen only at resumption and only while the horizon
    is set.  A quantum refuses, before drawing its jitter, any charge
    whose cost plus the maximum jitter could take the clock to the
    horizon, and the charge whose step would reach the crash step, so
    the charge that could let another thread win the pick, and the step
    that would crash, still travel through {!step}.  Every charge, by
    either road, moves the clock and the step count when it is made, so
    {!now}, {!thread_cycles}, {!elapsed_cycles} and {!total_steps} are
    exact mid-burst.  The run loop revokes the quantum whenever control
    comes back from the thread it resumed; a mutex hand-off and
    {!quantum_settle} revoke it too.  Simulated results are
    bit-identical with quanta on or off. *)

type quantum
(** A revocable burst-charge handle owned by one scheduler. *)

val quantum_handle : t -> quantum
(** The scheduler's quantum handle, to be installed into the device
    layer ([Pmem.set_quantum]).  Holding the handle grants nothing: a
    charge only goes through while the run loop has granted the thread
    it resumed a quantum. *)

val null_quantum : quantum
(** A handle that never grants: charging against it always returns
    [false].  The device layer's state before a scheduler is wired. *)

val quantum_try_charge : quantum -> cost:int -> bool
(** Charge one step's [cost] (plus the usual jitter draw) against a held
    quantum.  [false] when no quantum is held, when [cost] plus the
    maximum jitter could reach the horizon, or when the step would reach
    the crash step; the charge has then drawn nothing, and the caller
    must charge through {!step}.  Performs the same clock update, RNG
    draw and step count a charge through {!step} would. *)

val quantum_settle : quantum -> unit
(** Revoke the current grant, if any: later charges go through {!step}
    until the run loop grants again.  Idempotent; safe from harness
    code.  The device revokes before a crash. *)

val yield : t -> unit
(** [step t ~cost:0]. *)

val self : t -> int
(** Id of the currently executing simulated thread.
    @raise Invalid_argument outside of {!run}. *)

val now : t -> int
(** Virtual clock of the currently executing simulated thread — the hook
    point for history recorders, which bracket each operation with two
    reads of this clock.  A single field load; draws no randomness and
    charges no cycles, so instrumentation cannot perturb the simulation.
    @raise Invalid_argument outside of {!run}. *)

val in_thread : t -> bool
(** Whether a simulated thread is currently executing — i.e. whether
    {!now}/{!self} may be called.  Never raises; tracer clock closures
    use it to fall back to the device clock in harness code. *)

val current_id : t -> int
(** The executing thread's id, or [-1] outside of {!run}.  Never
    raises. *)

val set_tracer : t -> Obs.Tracer.t option -> unit
(** Attach an event tracer: the run loop emits one
    {!Obs.Event.ctx_switch} each time the CPU passes to a different
    thread (charges through a quantum, and a loop pass that resumes the
    same thread again, emit nothing).
    Reads no RNG and charges no cycles. *)

(** {2:pick The pick}

    Each pass of the run loop picks the runnable thread with the
    smallest clock and yields its horizon.  A scan of the thread table
    in spawn order defines the pick: it breaks clock ties with one draw
    at each thread that ties the smallest clock scanned before it, so
    that equal-time threads interleave differently across seeds.

    The run loop makes the scan's draws off an ordered runnable set:
    the [Fresh] and [Suspended] threads by (clock, id), with the count
    of adjacent equal clocks.  A thread enters it at {!run}, on
    suspending and when a mutex hand-off wakes it; the pick leaves it.
    Every pick follows one rule.  First one draw per prefix tie: a
    runnable thread below the minimum group's first id whose clock ties
    the smallest runnable clock before it.  Only a tie above the
    minimum can make one, and only then is the thread table walked, up
    to the group's first id.  Then one draw per group member after the
    first in id order, which alone choose the pick.  The horizon is set
    when there was no prefix tie and the kept member is the group's
    first or second: the group's clock when the group has other
    members, else the next clock ([max_int] alone).  With no two clocks
    equal, as in most picks, that is the minimum with no draw, and the
    pick takes it at once.  Picks, draws and horizons are the scan's in
    every case. *)

type thread_state = Fresh | Suspended | Running | Blocked | Done
(** [Fresh] (not started) and [Suspended] threads are runnable. *)

type table
(** A bare thread table with the run loop's runnable set, for the
    differential test of the pick against the scan. *)

val table : Sim_rng.t -> int -> table
(** [table rng n]: [n] [Fresh] threads at clock 0, entered into the set
    as {!run} enters them; picks draw their tie-breaks from [rng]. *)

val table_pick : table -> int * int
(** The run loop's pick over the table (-1 when no thread is runnable)
    and the pick's horizon ([min_int] when unset).  The pick becomes
    [Running] and leaves the set. *)

val table_set : table -> int -> thread_state -> int -> unit
(** [table_set tb id state clock] gives thread [id], which must be out
    of the set ([Running] or [Blocked]), [state] at [clock]; a runnable
    [state] enters it, as a suspension does. *)

val table_wake : table -> int -> int -> unit
(** [table_wake tb id clock] wakes the [Blocked] thread [id] as a mutex
    hand-off does, at the releaser's [clock]: the thread's clock becomes
    the larger of the two and it re-enters the set. *)

val elapsed_cycles : t -> int
(** Simulated duration so far: the maximum per-thread virtual clock. *)

val total_steps : t -> int
(** Steps charged so far, through {!step} and through quanta alike;
    exact mid-burst. *)

val thread_cycles : t -> int -> int
val thread_count : t -> int
val is_crashed : t -> bool

(** Simulated mutexes.  Blocking and hand-off are scheduling events; a
    direct FIFO hand-off transfers ownership to the longest-waiting
    thread, whose virtual clock is advanced to the release time (it could
    not have proceeded earlier). *)
module Mutex : sig
  type mutex

  val create : t -> mutex
  val id : mutex -> int

  val lock : mutex -> unit
  (** @raise Invalid_argument on recursive acquisition. *)

  val unlock : mutex -> unit
  (** @raise Invalid_argument if the caller does not hold the mutex. *)

  val owner : mutex -> int option
end
