(** The simulated byte-addressable NVM device.

    Programs manipulate durable data through this interface exactly as the
    paper's "NVM style" prescribes: word-granularity loads, stores and CAS
    directly against the persistent region, with explicit [flush]/[fence]
    persistence primitives available (and, under TSP, unnecessary).

    Every operation reports its cycle cost to the scheduler, which
    advances the issuing thread's virtual clock and interleaves threads:
    through the scheduler's quantum while it holds one (see
    {!set_quantum}), through the registered step hook otherwise.  When
    no hook is installed (setup and recovery code), costs accumulate on
    {!Stats.t}'s [clock].  Inside {!cost_free} nothing is charged.

    Crash semantics (the heart of the reproduction), as {!crash} runs
    the paper's two {!Fault_model.t} endpoints:
    - [Full_rescue] models a tolerated failure for which TSP is
      available: every dirty cache line is written back to the durable
      image before execution stops, so recovery observes {e all} stores
      issued so far — a strict prefix of program order (the whole of it).
    - [Full_discard] models a failure without TSP (e.g. power loss on
      plain DRAM): dirty lines are lost and the durable image keeps only
      what eviction or explicit flushes had already written back. *)

type t

exception Crashed_device
(** Raised by every operation between {!crash} and {!recover}. *)

val create : ?journal:bool -> Config.t -> t
(** Build a device.  [journal] (default [false]) records every store in a
    history buffer so the recovery-observer check can verify the
    prefix property.

    {b The journal grows without bound}: one entry per store for the
    lifetime of the device (cleared only by {!recover}).  A workload
    issuing millions of stores with [~journal:true] will hold all of
    them in memory — enable it only for tests and fault-injection runs
    of bounded length. *)

val config : t -> Config.t
val stats : t -> Stats.t

val set_step_hook : t -> (cost:int -> unit) -> unit
(** Install the scheduler callback invoked once per operation with that
    operation's cycle cost.  The callback typically yields. *)

val clear_step_hook : t -> unit

val set_quantum : t -> Sched.Scheduler.quantum -> unit
(** Install the scheduler's quantum handle: every charge — load, store,
    CAS, flush, fence and {!charge} — first tries
    {!Sched.Scheduler.quantum_try_charge} and falls back to the step
    hook when no quantum is held or the quantum refuses the charge at
    the horizon or the crash step.  Wired alongside {!set_step_hook};
    until then the device holds {!Sched.Scheduler.null_quantum}, which
    never grants.  {!crash} revokes the quantum before the device
    stops. *)

val clear_quantum : t -> unit
(** Reinstall {!Sched.Scheduler.null_quantum}. *)

val charge : t -> int -> unit
(** Account [cycles] of pure computation (hashing, RNG, loop overhead) to
    the issuing thread.  Models the instruction stream between memory
    operations without simulating it. *)

(** {1 Memory operations} *)

val load : t -> int -> int64
val store : t -> int -> int64 -> unit

val cas : t -> int -> expected:int64 -> desired:int64 -> bool
(** Atomic compare-and-swap on one word: the read and conditional write
    happen within a single scheduler step, as a hardware CAS would. *)

val load_int : t -> int -> int
(** [Int64.to_int (load t addr)], with identical cycle accounting but no
    [int64] box: the hot-path form.  A load/store loop through the int
    operations performs zero minor-heap allocation (a regression test
    asserts this). *)

val store_int : t -> int -> int -> unit
(** [store t addr (Int64.of_int v)], with identical cycle accounting,
    journal entries and stored bytes, but no [int64] box. *)

val cas_int : t -> int -> expected:int -> desired:int -> bool
(** [cas] through sign-extended int operands, allocation-free.  The
    comparison still observes all 64 stored bits. *)

val set_tracer : t -> Obs.Tracer.t option -> unit
(** Attach (or detach) an event tracer.  Every device op then emits one
    packed event after its cycle charge; attaching also wires the
    tracer's dirty-line sampler to this device's cache, so each event
    carries the lines-at-risk exposure at that instant.  Tracing draws
    no RNG, charges no cycles and allocates nothing: traced runs are
    sim-cycle byte-identical to untraced ones. *)

val tracer : t -> Obs.Tracer.t option
(** The attached tracer, for upper layers (Atlas, recovery) that emit
    their own events against the same ring. *)

val flush : t -> int -> unit
(** Write the cache line containing the address back to the durable
    image (clwb).  A no-op if the line is clean, but the latency is paid
    regardless, as on real hardware. *)

val fence : t -> unit
(** Persist fence: orders prior flushes.  In this model write-backs are
    immediate, so the fence only costs cycles — but callers must still
    issue it where a real persistence protocol would, and tests assert
    that they do. *)

val cost_free : t -> (unit -> 'a) -> 'a
(** [cost_free t f] runs [f] with the device working on its images alone,
    the write-side twin of {!peek}: a load reads the current image, a
    store or successful CAS writes the current and the durable image,
    and {!flush}, {!fence} and {!charge} do nothing.  Nothing is cached,
    counted in {!Stats.t}, charged to the clock or traced; the journal
    still records every store, as the costed path does.  So after [f]
    the durable image holds every store [f] made, and the cache, stats
    and clock are what they were before it.

    For building a state whose only use is its image: a heap that is
    then crashed and recovered ([Pmem.recover] leaves the durable image
    and a cold cache, whatever came before).  The device is live again
    when [f] returns or raises.
    @raise Crashed_device on a crashed device.
    @raise Invalid_argument while a step hook is installed (threads are
    running, and a cost-free op would never yield) or inside another
    [cost_free]; {!crash}, {!recover} and {!persist_all} raise it inside
    [f]. *)

(** {1 Crash and recovery} *)

type crash_damage = {
  rescued : int;  (** dirty lines fully written back *)
  torn : int;  (** dirty lines whose write-back was cut mid-line *)
  dropped : int;  (** dirty lines lost outright *)
  bit_flips : int;  (** durable bits flipped after the crash *)
}

val crash :
  t ->
  fault:Fault_model.t ->
  ?rescue_limit:int ->
  rng:(int -> int) ->
  unit ->
  crash_damage
(** Stop the world under [fault] and report what the durable image
    suffered.  After a crash the device is unusable until {!recover}.
    [Full_rescue] and [Full_discard] are the two endpoints of the module
    header and draw nothing from [rng].  [Partial_rescue] rescues at most
    [rescue_limit] dirty lines (default unbounded; the caller derives
    the limit from the WSP energy budget), walking them in ascending
    line-address order so the surviving prefix is deterministic.
    [Torn_lines] tears each rescued line with the model's probability:
    only [rng words_per_line] leading words reach durability, so at
    least the line's last word keeps its stale durable contents.  A tear
    of zero words moves no bytes and therefore does not count as a
    write-back in {!Stats.t} (the RNG draw still happens, so crash
    images remain seed-reproducible).
    [Bit_rot] rescues everything, then flips [flips] uniformly-drawn
    bits of the durable image.  [rng bound] must return a value in
    [\[0, bound)]; all draws happen in a fixed order, so a deterministic
    RNG makes the whole crash bit-reproducible. *)

val recover : t -> unit
(** Model a restart: the current image is replaced by the durable image
    and the cache is cold.  The journal (if any) is cleared. *)

val is_crashed : t -> bool

val persist_all : t -> unit
(** Write every dirty line back to the durable image, paying one flush
    per line plus a fence.  Recovery code calls this when it finishes, so
    the repaired state is itself durable. *)

(** {1 Inspection (tests, verification, the recovery observer)} *)

val load_durable : t -> int -> int64
(** What the persistence domain holds right now, bypassing the cache. *)

val peek : t -> int -> int64
(** Debug read of the current image with no cost, no statistics and no
    cache effects.  For assertions and verifiers only — simulated code
    must use {!load}. *)

val peek_int : t -> int -> int
(** [Int64.to_int (peek t addr)] without the box (bit 63 is dropped, as
    in {!load_int}).  The allocation-free peek the streamed recovery
    scanners are built on. *)

val peek_page_untouched : t -> int -> bool
(** Whether the current-image page holding [addr] is still the shared,
    never-written zero page ({!Memory.page_untouched}): [true] means all
    {!Memory.page_size} bytes of it read zero.  Like {!peek}, it costs
    nothing and touches neither the cache model nor the statistics, so
    an image digest can skip such pages without reading them. *)

val dirty_line_count : t -> int
(** Number of dirty lines in the simulated cache right now.  O(1): the
    cache maintains the count incrementally. *)

val durable_snapshot : t -> string
(** A copy of the durable image, for bit-exact comparisons in
    determinism tests. *)

val store_history : t -> (int * int64) list
(** Journal of (address, value) stores in issue order, oldest first.
    Empty unless the device was created with [~journal:true]. *)

val durable_reflects_all_stores : t -> bool
(** The recovery-observer check of Section 4.1: for every address ever
    stored to, is the {e last} stored value the one in the durable image?
    This is exactly the guarantee a TSP [Full_rescue] crash provides
    (recovery sees the full prefix of issued stores); after a
    [Full_discard] crash it typically fails, which is why non-TSP
    designs must flush.
    Precondition: device created with [~journal:true]. *)

val lost_store_count : t -> int
(** Number of journaled addresses whose last stored value did not reach
    the durable image (0 after a TSP rescue). *)
