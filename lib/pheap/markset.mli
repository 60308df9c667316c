(** The recovery collector's mark set: one bit per 8-byte word of the
    heap span [\[Heap.start_addr, Heap.end_addr)] as it stands when the
    set is created.

    Every object's data address is a word of that span, so a bitmap
    answers membership with a shift and a mask, allocates once
    (span / 64 bytes) and never grows or hashes — the collector's
    whole mark set for a 60k-object heap is 37.5 KiB.  It keeps no
    insertion order: the collectors' traversal orders live in their
    stacks and frontiers, never in the set. *)

type t

val create : Heap.t -> t
(** An empty set over the heap's current span. *)

val mem : t -> int -> bool
(** [false] for an address outside the span or not 8-aligned. *)

val add : t -> int -> bool
(** [add t a] marks [a]; [true] iff it was not yet marked.  Callers pass
    addresses {!Heap.is_object_start} accepted, which lie in the span.
    @raise Invalid_argument for an address outside the span or not
    8-aligned. *)

val cardinal : t -> int
(** Marked addresses. *)
