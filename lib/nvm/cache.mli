(** Set-associative write-back cache model.

    Only the metadata of the cache is modelled — tags, dirty bits and LRU
    ordering.  Data lives in {!Memory}'s current image; when this model
    decides a line must be written back it invokes the [write_back]
    callback supplied at creation, which snapshots that line into the
    durable image.  This is precisely the behaviour TSP reasons about:
    dirty lines are vulnerable, written-back lines are safe.

    The metadata is stored struct-of-arrays — flat [int array]s of tags
    and LRU stamps plus a dirty bitset — and the access path reports its
    outcome as an unboxed int code, so one simulated access performs no
    minor-heap allocation.  See DESIGN.md, "Hot-path architecture". *)

type t

(** {1 Unboxed access results}

    [touch] returns one of the three codes below.  They are ordinary
    ints (no constructor is allocated): test [code = hit] for the hit
    path, [code = miss_dirty] when a dirty victim was written back. *)

val hit : int
(** The line was already cached ([= 0]). *)

val miss_clean : int
(** Miss; the installed line displaced nothing dirty ([= 1]). *)

val miss_dirty : int
(** Miss; the evicted LRU victim was dirty and was written back ([= 2]). *)

val create :
  sets:int -> ways:int -> line_size:int -> write_back:(int -> unit) -> t
(** [write_back line_addr] is called with the byte address of the first
    byte of each line the cache evicts or flushes while dirty.

    [sets] and [line_size] must both be powers of two so that line and
    set indexing reduce to shift/mask on the access hot path.
    @raise Invalid_argument otherwise. *)

val touch : t -> addr:int -> dirty:bool -> int
(** Record an access to the line containing [addr] and return {!hit},
    {!miss_clean} or {!miss_dirty}.  [dirty] marks the line modified (a
    store); a load leaves the dirty bit as it was.  On a miss the LRU
    way of the set is evicted (writing it back first if dirty) and the
    new line installed.  Allocates nothing. *)

val flush_line : t -> addr:int -> bool
(** Write the line containing [addr] back if it is cached and dirty
    (clwb semantics: the line stays cached, now clean).  Returns [true] if
    a write-back actually happened. *)

val dirty_lines : t -> int list
(** Byte addresses of all currently dirty lines, ascending.  Sorted with
    [Int.compare] over a scratch array (not polymorphic compare): this
    runs once per [Pmem.crash], i.e. per campaign crash point. *)

val dirty_count : t -> int
(** Number of currently dirty lines, maintained incrementally — O(1),
    unlike [List.length (dirty_lines t)] which scans every way. *)

val write_back_all : t -> int
(** Flush every dirty line (the crash-time TSP rescue, or a full cache
    flush from a kernel panic handler).  Returns the number of lines
    written back. *)

val drop_all : t -> int
(** Invalidate the whole cache {e without} writing anything back: the
    non-TSP crash.  Returns the number of dirty lines whose contents were
    lost. *)

val cached : t -> addr:int -> bool
(** Whether the line containing [addr] is present (for tests). *)

val is_dirty : t -> addr:int -> bool
(** Whether the line containing [addr] is present and dirty. *)
