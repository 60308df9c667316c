(** One simulated "machine": a private NVM device, scheduler, Atlas
    runtime and map instance, bundled so that several of them can
    coexist in one process.

    Historically {!Runner} built this quintet inline and assumed it was
    alone in the world; the sharded service layer ([lib/service]) needs
    N of them side by side — one per shard — each crashing and
    recovering independently while the others keep executing.  This
    module is that refactor: everything device-, scheduler- or
    map-shaped that {!Runner.run} used to wire by hand now lives behind
    one handle, and {!Runner} itself is a client.

    {b Multi-instance safety} (audited for this refactor): every piece
    of state the machine touches is per-instance —
    {!Sched.Scheduler.t} carries its own RNG, thread table, quantum and
    tracer field; {!Nvm.Pmem.t} its own cache, images, hooks and stats;
    {!Atlas.Runtime} and the maps live inside their machine's heap.
    The only cross-instance values are {!Sched.Scheduler.null_quantum}
    — a deliberately shared sentinel whose budget can never become
    positive (its owning scheduler never runs) — and the tracer a config
    may carry.  A {!Obs.Tracer.t} registers per-ring context closures
    ([set_clock]/[set_tid]/[set_dirty]), and {!create}/{!reattach}
    point them at {e this} machine's scheduler and device: sharing one
    tracer between two live machines would cross-wire those closures,
    so every machine must be given its own tracer (or none).  *)

include module type of struct
  include Run_config
end
(** The run configuration; the [struct include] form keeps the type
    equations, so [Machine.config] is [Runner.config]. *)

type spec = config
(** A machine's own configuration: the type of its [spec] field. *)

val value_words : config -> int
(** The hash map's value width: a [Wide] workload's [value_words], else
    1. *)

(** The map under test with the handles recovery-time verification
    needs: [fold_root] dumps the persistent structure and [audit] checks
    its structural invariants, both with plain loads against {e any}
    heap handle over the same device, so they work on the re-attached
    post-crash heap too. *)
type map = {
  map_ops : Tsp_maps.Map_intf.ops;
  set_plain : key:int -> value:int64 -> unit;
  fold_root :
    Pheap.Heap.t ->
    root:Pheap.Heap.addr ->
    (int -> int64 -> (int * int64) list -> (int * int64) list) ->
    (int * int64) list;
  audit : Pheap.Heap.t -> root:Pheap.Heap.addr -> unit;
      (** the structure's own audit (B-tree, NVTraverse skip list,
          delay-free table); @raise Pheap.Heap.Corrupt naming the
          structure and its first broken invariant.  A no-op for the
          hash map and the plain skip list. *)
  hashmap : Tsp_maps.Chained_hashmap.t option;
      (** the richer interface (transfers, wide values); mutex map only *)
}

type t = {
  spec : spec;
  pmem : Nvm.Pmem.t;
  mutable heap : Pheap.Heap.t;
      (** re-pointed at the recovered heap by a successful {!recover} *)
  mutable sched : Sched.Scheduler.t;
      (** replaced by {!reattach} (a restart gets a fresh scheduler) *)
  mutable atlas : Atlas.Runtime.t option;
  mutable map : map;
  mutable gc_pending : Pheap.Heap_gc.Incremental.t option;
      (** set by an [Incremental_gc] {!recover}; cleared by
          {!finish_background_gc} *)
}

val log_base : config -> int
(** First byte of the undo-log region (= heap size). *)

val create : config -> t
(** Build the machine the run config describes: device, heap, scheduler
    (with the config's tracer wired), Atlas runtime (mutex variants) and
    an empty map.  Population, thread spawning and the fields only a run
    reads ([iterations], [crash_at_step], [populate_objects],
    [instrument], ...) are the caller's business. *)

val instrument :
  t -> (Tsp_maps.Map_intf.ops -> Tsp_maps.Map_intf.ops) -> unit
(** Interpose on the map's operation record (history recorders, mutation
    harnesses).  [set_plain] and [fold_root] bypass the wrapper. *)

val execute : ?crash_at_step:int -> t -> Sched.Scheduler.outcome
(** Wire the device's step hook and quantum handle to this machine's
    scheduler, run every spawned thread to completion/deadlock/crash,
    and unwire (even on exceptions). *)

val crash_execute :
  ?fault:Nvm.Fault_model.t -> t -> Tsp_core.Crash_executor.execution
(** Execute the crash-time TSP rescue plan (or the adversarial [fault])
    for the spec's hardware and failure class.  The crash draws come
    from their own seed-derived stream, so a given (spec, crash step)
    is bit-reproducible regardless of what the workload drew. *)

type recovery = {
  heap : Pheap.Heap.t option;  (** [None]: attach failed (unrecoverable) *)
  observer : Tsp_core.Recovery_observer.verdict option;
  atlas_recovery : Atlas.Recovery.report option;
  rcas_repair : Tsp_maps.Delayfree_map.repair option;
      (** [Delayfree_map] only: outcome of completing/aborting every
          in-flight announced CAS (exactly once) before the table is
          read *)
  gc : Pheap.Heap_gc.stats option;
  gc_quarantine : Pheap.Heap_gc.quarantine option;
  gc_pending : Pheap.Heap_gc.Incremental.t option;
      (** [Incremental_gc] only: the deferred collection *)
  recovery_verdict : Atlas.Recovery.verdict;
  heap_audit_ok : bool;
  recovery_errors : string list;
}

val recover : ?mode:recovery_mode -> t -> recovery
(** The whole post-crash pipeline: device recovery, heap re-attach,
    Atlas rollback (mutex variants), graceful GC, audit.  Failures are
    reported, never raised.  On success [t.heap] is re-pointed at the
    recovered heap; [t.atlas] and [t.map] are stale until {!reattach}
    (the recovered state can still be audited and dumped through
    [t.map], whose [audit] and {!dump} read any heap handle).  [mode]
    defaults to [Eager]. *)

val finish_background_gc :
  t -> (Pheap.Heap_gc.stats * Pheap.Heap_gc.quarantine) option
(** Complete a pending incremental collection (pay any remaining budget,
    apply the allocator reset) and clear [gc_pending].  [None] when no
    collection is pending. *)

val reattach : t -> recovery -> Pheap.Heap.addr
(** Restart the machine on the heap [recovery] left: fresh scheduler
    seeded [spec.seed + 101] (with the tracer re-wired), fresh Atlas
    runtime whose sequence starts one past the recovered log's
    [max_seq], and the map re-attached at the persistent root, which is
    returned (the root read is a simulated load; callers wanting the
    root must reuse this one, not re-read it).  After this the machine
    serves again: spawn threads and {!execute}. *)

val dump : t -> root:Pheap.Heap.addr -> (int * int64) list
(** [map.fold_root] over the machine's current heap at [root], which
    the caller already holds (reading it again would be another costed
    load). *)

val read_back :
  t ->
  root:(unit -> Pheap.Heap.addr) ->
  (Pheap.Heap.addr -> 'a) ->
  ((int * int64) list * 'a, string) result
(** The guarded read-back of a recovered image: [root ()] locates the
    map (a costed root load, or {!reattach}), then the map's [audit]
    runs, then {!dump}, then [also] at the same root.  A damaged image
    can make any of them raise {!Pheap.Heap.Corrupt} or
    [Invalid_argument]; the message is then the [Error], so a read-back
    never raises either. *)
