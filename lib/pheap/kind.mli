(** Registry of object kinds.

    The recovery-time garbage collector must know which words of an object
    hold heap pointers.  Each data structure registers its node layouts
    here once (at module initialisation); the kind id is stored in every
    object header, making the heap self-describing across crashes.

    A [scan] function receives a word reader, the object's address and
    size, and an [emit] callback, and pushes every address the object
    points to through [emit].  Words arrive as unboxed ints (bit 63
    dropped — only pointer words may be interpreted, and addresses fit),
    so a scan allocates nothing.  It must strip any tag bits it packs
    into pointer words (e.g. the skip list's mark bit) and may skip
    empty (0) slots; every read must stay inside the object's
    [header, end) span.

    Every collector uses the one scanner; only the reader differs.  The
    eager collector passes costed device loads and pushes an object's
    emissions onto its DFS stack {e last to first}, so the first child
    emitted is the next one visited; the streamed collector passes
    cost-free peeks and queues children breadth-first in emission
    order.  Under costed loads the visit order is the charge sequence,
    so a scanner's emission order is part of the pinned eager cycle
    counts. *)

type scan =
  load:(int -> int) -> addr:int -> words:int -> emit:(int -> unit) -> unit

val raw : int
(** Builtin kind 1: no pointers at all. *)

val all_pointers : int
(** Builtin kind 2: every word is either null or a heap pointer. *)

val register : ?kind:int -> name:string -> scan:scan -> unit -> int
(** Register a kind and return its id.  When [kind] is given it is used;
    otherwise the next id from 16 up that no kind holds yet.  Without
    [kind] the id follows module initialisation order, which depends on
    what the program links, so the library's structures pin theirs: a
    heap image then reads the same in every program.  Re-registering an id under the same name is an idempotent no-op that
    keeps the {e original} scanner (a kind cannot be silently neutered
    once objects of it exist); registering a different name over an
    existing id raises.  Ids must fit in a byte and not collide with the
    free-block kind 0. *)

val scan_object : kind:int -> scan
(** Scanner for [kind]. @raise Invalid_argument for unknown kinds. *)

val name : int -> string
val is_registered : int -> bool
