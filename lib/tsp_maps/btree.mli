(** An Atlas-fortified B+-tree — a third map implementation, beyond the
    paper's two, demonstrating the Section 4.2 approach on a structure
    whose updates are {e large} critical sections.

    A node split rewrites dozens of words across three nodes and the
    parent; an insert cascading splits up the tree multiplies that.
    Interrupting such an update without rollback leaves dangling
    children, duplicated separators or half-moved keys — precisely the
    corruption class Atlas's OCS rollback repairs.  The fault-injection
    suite crashes this tree mid-split hundreds of times and recovers a
    structurally valid tree every time (in logging modes).

    Isolation is a single tree mutex (the coarse end of "conventional
    mutexes for isolation"); every mutating operation is one outermost
    critical section.

    Persistent layout:
    - header (2 words): root node, order
    - node (3 + 2*order + 1 words):
      [0] meta = is_leaf | (nkeys << 1); [1] next leaf (leaves only);
      [2] reserved; keys at [3, 3+order); values (leaves) or children
      (internal, nkeys+1 of them) at [3+order, 4+2*order).

    Deletion removes keys from leaves without rebalancing (leaves may
    underflow; separators remain as routing keys).  This is a common
    simplification — lookups and scans stay correct, space is reclaimed
    when a leaf empties completely at the next recovery GC if it becomes
    unreachable. *)

type t

val default_order : int
(** Maximum keys per node (7). *)

val create :
  Pheap.Heap.t ->
  atlas:Atlas.Runtime.t ->
  sched:Sched.Scheduler.t ->
  ?order:int ->
  ?op_cycles:int ->
  unit ->
  t
(** Allocate an empty tree (one empty leaf as root), point the heap root
    at its header, and create the tree mutex. *)

val attach :
  Pheap.Heap.t ->
  atlas:Atlas.Runtime.t ->
  sched:Sched.Scheduler.t ->
  ?op_cycles:int ->
  Pheap.Heap.addr ->
  t
(** Rebuild a volatile handle after recovery.
    @raise Invalid_argument if the address is not a B+-tree header. *)

val root : t -> Pheap.Heap.addr
val order : t -> int
val ops : t -> Map_intf.ops

(** {1 Plain access — setup and verification} *)

val set_plain : t -> key:int -> value:int64 -> unit
(** Single-threaded, uninstrumented insert for pre-run population. *)

val fold_plain :
  Pheap.Heap.t -> root:Pheap.Heap.addr -> (int -> int64 -> 'a -> 'a) -> 'a -> 'a
(** In-order traversal along the leaf chain. *)

val size_plain : Pheap.Heap.t -> root:Pheap.Heap.addr -> int

val check_plain : Pheap.Heap.t -> root:Pheap.Heap.addr -> (unit, string) result
(** Structural audit: node key counts in range, keys sorted, children
    respect separators, all leaves at the same depth, and the leaf chain
    enumerates the same keys as the tree descent, in order. *)

val height : Pheap.Heap.t -> root:Pheap.Heap.addr -> int
