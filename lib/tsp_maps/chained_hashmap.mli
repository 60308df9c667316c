(** The mutex-based map of Section 5.1: a separate-chaining hash table
    with moderate-grain locking — one mutex per 1000 buckets, as in the
    paper — whose mutating operations run as Atlas outermost critical
    sections.

    Persistent layout (all in the heap, reachable from the root):
    - header object (3 words): bucket count, table address, value width
    - table object: one head pointer per bucket
    - node objects (2 + width words): key, next, value word(s)

    Values may be wider than one word ([?value_words] at creation).
    Writing a wide value is then a genuine multi-store critical section:
    under an unfortified run a crash can tear it {e even when every
    store is durable} — TSP provides durability of the prefix, and only
    Atlas's rollback restores atomicity (the [Wide] workload and its
    fault campaign demonstrate exactly this).

    Construction ({!create}) runs single-threaded before workers start
    and uses plain stores; the caller persists the initial state.  All
    runtime mutation goes through {!ops}, which locks the bucket's mutex,
    so every operation is failure-atomic under Atlas and isolated under
    the mutex discipline. *)

type t

val create :
  Pheap.Heap.t ->
  atlas:Atlas.Runtime.t ->
  sched:Sched.Scheduler.t ->
  n_buckets:int ->
  ?op_cycles:int ->
  ?value_words:int ->
  unit ->
  t
(** Allocate the persistent structure, point the heap root at it, and
    build the volatile mutex array. *)

val attach :
  Pheap.Heap.t ->
  atlas:Atlas.Runtime.t ->
  sched:Sched.Scheduler.t ->
  ?op_cycles:int ->
  Pheap.Heap.addr ->
  t
(** Rebuild a volatile handle onto an existing persistent map (after
    recovery).  @raise Invalid_argument if the root object is not a hash
    map header. *)

val root : t -> Pheap.Heap.addr
val n_buckets : t -> int
val ops : t -> Map_intf.ops

val transfer :
  t -> tid:int -> debit:int -> credit:int -> amount:int64 -> bool
(** Atomically move [amount] from key [debit] to key [credit]: both
    bucket mutexes are held (in id order, so transfers cannot deadlock)
    and both stores happen in one outermost critical section.  This is
    the paradigmatic multi-store section: tearing it loses money, which
    is what Atlas's rollback prevents — and what a non-blocking map
    cannot express at all without multi-word atomic primitives (the
    generality gap Section 4.2 discusses).  Returns [false] (and moves
    nothing) if either key is absent or the debit balance is
    insufficient. *)

(** {1 Plain (uninstrumented) access — setup and verification} *)

val set_plain : t -> key:int -> value:int64 -> unit
(** Single-threaded insert using plain stores; for pre-run population. *)

val fold_plain :
  Pheap.Heap.t -> root:Pheap.Heap.addr -> (int -> int64 -> 'a -> 'a) -> 'a -> 'a
(** Traverse a persistent hash map directly (no locks, no instrumentation):
    what recovery code and the invariant checker use.
    @raise Pheap.Heap.Corrupt if a chain visits more nodes than the
    allocated heap can hold (a damaged image's cycle). *)

val size_plain : Pheap.Heap.t -> root:Pheap.Heap.addr -> int

(** {1 Wide (multi-word) values} *)

val value_words : t -> int

val set_wide : t -> tid:int -> key:int -> values:int64 array -> unit
(** Replace all value words of [key] (inserting if absent) in one
    critical section.  @raise Invalid_argument on width mismatch. *)

val get_wide : t -> tid:int -> key:int -> int64 array option

val fold_wide_plain :
  Pheap.Heap.t ->
  root:Pheap.Heap.addr ->
  (int -> int64 array -> 'a -> 'a) ->
  'a ->
  'a
