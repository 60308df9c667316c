(** The non-blocking map of Section 5.1: a lock-free skip list after
    Herlihy & Shavit (The Art of Multiprocessor Programming, pp. 339-349,
    the algorithm behind the nbds library the paper uses), built directly
    on persistent-heap words and CAS.

    Non-blocking property: threads never hold locks; a thread suspended
    or killed at any instruction boundary cannot prevent others from
    completing operations (they help by snipping marked nodes).  By the
    argument of Section 4.1 this gives consistent crash recovery {e for
    free} under TSP — there is no logging, no flushing and no recovery
    pass; recovery is merely re-attaching to the root.

    Node layout: key, value, level, then [level] next pointers whose low
    bit is the deletion mark.  Deletion marks top-down and is linearised
    at the bottom-level mark; traversals physically unlink marked nodes
    as they pass.

    {2 The NVTraverse discipline}

    Built with [~nvtraverse:true], the same list runs the NVTraverse
    transformation (Friedman et al., PLDI 2020): operations are split
    into a {e traversal} phase that issues no flushes at all and a
    {e critical update} window that persists only the O(1) words
    carrying durable state — the freshly initialised node and the
    bottom-level link for an insert, the value word for an overwrite or
    increment, the marked bottom-level link for a delete — each followed
    by a single fence.

    Per-operation psync complexity therefore drops from O(path length)
    (what a naive "flush everything you touch" persistent skiplist
    pays) to O(1): one flush + one fence for overwrite/increment/
    delete, two-to-three flushes and two fences for an insert.
    Upper-level links are treated as a volatile index — never flushed,
    rebuilt by any traversal — mirroring the SOFT/NVTraverse observation
    that only the bottom-level list is semantically persistent.

    The two disciplines differ only in those flushes and fences, which
    is the paper's procrastination-versus-prevention contrast in one
    structure.  They share the node layout and GC kind, so snapshots,
    audits and recovery treat both identically; recovery remains
    re-attachment plus GC. *)

type t

val create :
  Pheap.Heap.t ->
  ?op_cycles:int ->
  ?nvtraverse:bool ->
  num_threads:int ->
  seed:int ->
  unit ->
  t
(** Allocate 16-level head and tail sentinels, point the heap root at
    the head, and build per-thread level generators from [seed] and
    per-thread search scratch arrays; an operation's [tid] must be below
    [num_threads].  With
    [~nvtraverse:true] (default [false]) the sentinels are persisted
    before returning and every operation runs the NVTraverse
    discipline.
    @raise Invalid_argument if [num_threads] is below 1. *)

val attach :
  Pheap.Heap.t ->
  ?op_cycles:int ->
  ?nvtraverse:bool ->
  num_threads:int ->
  seed:int ->
  Pheap.Heap.addr ->
  t
(** Re-attach after recovery: nothing to repair, by design, under
    either discipline.
    @raise Invalid_argument if [num_threads] is below 1 or the root is
    not a skip-list head. *)

val root : t -> Pheap.Heap.addr
val max_level : t -> int
val ops : t -> Map_intf.ops

(** {1 Plain access — setup and verification} *)

val set_plain : t -> key:int -> value:int64 -> unit
val fold_plain :
  Pheap.Heap.t -> root:Pheap.Heap.addr -> (int -> int64 -> 'a -> 'a) -> 'a -> 'a
(** Fold the live bottom-level entries in key order.
    @raise Pheap.Heap.Corrupt if a link leaves the heap's objects, or
    the walk visits more nodes than the allocated heap can hold (a
    damaged image's cycle). *)

val size_plain : Pheap.Heap.t -> root:Pheap.Heap.addr -> int

val check_plain : Pheap.Heap.t -> root:Pheap.Heap.addr -> (unit, string) result
(** Structural sanity: bottom-level keys strictly increase from the head
    sentinel to the tail sentinel. *)

val node_kind : int
