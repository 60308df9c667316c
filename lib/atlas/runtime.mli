(** Atlas-like crash-resilience runtime for mutex-based multithreaded
    programs over a persistent heap (Section 4.2 of the paper).

    The runtime assumes the target program already uses mutexes correctly
    for isolation and adds, transparently from the program's point of
    view, failure atomicity at the granularity of {e outermost critical
    sections} (OCS): the span from a thread's first lock acquisition at
    nesting depth zero to the matching release.  Each OCS is assumed to
    take the heap from one application-consistent state to another.

    Three mechanisms implement this, mirroring the original system:

    - {b Undo logging}: before an OCS's first store to a given word, the
      word's prior value is appended to the thread's persistent log.
    - {b Dependency tracking}: if an OCS acquires a mutex last released
      by an OCS that is not yet known stable, a [Dep] record is logged;
      recovery uses these edges to roll back {e committed} sections that
      observed data of sections being rolled back (the hazard of §2.3 of
      the Atlas paper).
    - {b Log pruning}: a committed OCS whose transitive dependencies are
      all stable can never be rolled back, so its log segment is
      discarded, bounding log space.

    The {!Mode.t} chosen at creation decides the cost profile measured in
    Table 1: [No_log] does none of the above; [Log_only] relies on TSP to
    make the log durable at crash time; [Log_flush] synchronously flushes
    every log entry before the guarded store and an OCS's data at commit
    — the overhead TSP exists to eliminate. *)

type t
type ctx
(** Per-thread handle; also usable single-threaded. *)

type amutex
(** An Atlas-wrapped simulated mutex. *)

type costs = {
  lock_cycles : int;  (** charged on every lock acquisition *)
  unlock_cycles : int;  (** charged on every release *)
  log_cycles : int;  (** bookkeeping charged per appended log entry *)
}

val default_costs : costs
(** 30 / 20 / 45 cycles: a CAS-based lock handoff and the instruction
    footprint of Atlas's logging fast path. *)

val create :
  ?costs:costs ->
  ?first_seq:int ->
  ?checkpoint_every:int ->
  mode:Mode.t ->
  heap:Pheap.Heap.t ->
  log_base:int ->
  log_size:int ->
  num_threads:int ->
  unit ->
  t
(** Build a runtime and format the undo-log region.  [first_seq] seeds
    the global entry sequence (pass one past the maximum recovered
    sequence when restarting after a crash). *)

val mode : t -> Mode.t
val thread_ctx : t -> tid:int -> ctx
val make_mutex : t -> Sched.Scheduler.t -> amutex
val mutex_id : amutex -> int

(** {1 The instrumented program interface} *)

val lock : t -> ctx -> amutex -> unit
val unlock : t -> ctx -> amutex -> unit

val with_lock : t -> ctx -> amutex -> (unit -> 'a) -> 'a
(** [lock]; run; [unlock] — including on exception. *)

val store : t -> ctx -> int -> int64 -> unit
(** Instrumented store to an absolute heap address: logs the prior value
    on the first store to that word within the current OCS (in logging
    modes), then stores.
    @raise Invalid_argument in logging modes outside any critical
    section — shared persistent data may only be modified under a
    mutex. *)

val store_field : t -> ctx -> Pheap.Heap.addr -> int -> int64 -> unit
val load_field : t -> Pheap.Heap.addr -> int -> int64

(** {1 Introspection (tests and reports)} *)

val ocs_depth : ctx -> int
val current_ocs : ctx -> int option
val live_log_entries : t -> tid:int -> int
val ocs_started : t -> int
(** Total OCSes begun so far. *)

(** {1 Deferred durability (Log_flush_async)} *)

val checkpoint : t -> unit
(** Force a durability point now: flush all data dirtied by commits
    since the last point, advance the persistent watermark along the
    stable prefix of pending commits, and prune their log segments.
    Called automatically every [checkpoint_every] commits. *)

val watermark : t -> int
(** The persistent durability watermark (-1 outside async mode). *)

val pending_commits : t -> int
(** Committed sections not yet covered by the watermark. *)

val unpruned_ocses : t -> int
(** OCS records still retained (not yet proven stable). *)
