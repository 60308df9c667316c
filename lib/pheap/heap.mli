(** The persistent heap: malloc-style allocation plus a heap-wide root
    pointer, over the simulated NVM device.

    This is the programming model both case studies of the paper share:
    the application allocates durable objects through a conventional
    interface, keeps every live structure reachable from the root set via
    {!set_root}/{!get_root}, and manipulates object fields with
    load/store/CAS — no serialisation, no translation layer.

    Allocator metadata (free lists, including the index over free blocks)
    is deliberately {e volatile}: after a crash it is rebuilt by the
    recovery-time garbage collector ({!Heap_gc}), which also reclaims
    objects leaked by interrupted operations.  Only the object headers,
    the bump high-water mark and the root pointer live on NVM, making the
    heap self-describing. *)

type t

type addr = int
(** Absolute byte address of an object's first data word. *)

val null : addr

exception Out_of_memory
exception Corrupt of string
(** Raised when on-media structures fail validation — the expected
    outcome when recovering from a non-TSP crash that lost dirty lines. *)

(** {1 Lifecycle} *)

val create : Nvm.Pmem.t -> base:int -> size:int -> t
(** Format a fresh heap on [size] bytes starting at byte offset [base] of
    the device, and persist the formatting (a fresh heap is durable by
    definition). *)

val attach : Nvm.Pmem.t -> base:int -> size:int -> t
(** Re-attach to an existing heap, e.g. after {!Nvm.Pmem.recover}.
    Validates the heap magic and bump pointer; does {e not} run the GC
    (call {!Heap_gc.collect} to rebuild free lists and reclaim leaks).
    @raise Corrupt if the header is damaged. *)

val pmem : t -> Nvm.Pmem.t
val base : t -> int

val start_addr : t -> int
(** Address of the first object header. *)

val end_addr : t -> int
(** Bump high-water mark: one past the last block. *)

(** {1 Root pointer} *)

val get_root : t -> addr
val set_root : t -> addr -> unit

(** {1 Allocation} *)

val alloc : t -> kind:int -> words:int -> addr
(** Allocate an object with [words] data words.  The data words are {e
    not} zeroed; callers must initialise every field before publishing
    the object.  @raise Out_of_memory when neither the free lists nor the
    bump region can satisfy the request. *)

val free : t -> addr -> unit
(** Explicitly release an object.  Optional — unreachable objects are
    collected at recovery — but keeps long runs from exhausting the
    region. *)

val free_via : t -> addr -> store:(int -> int64 -> unit) -> unit
(** Like {!free}, but the header overwrite goes through [store] instead
    of the plain device store.  Atlas-fortified code passes its
    instrumented store here, so rolling back the enclosing critical
    section also resurrects the freed object's header. *)

val free_words : t -> int
(** Words available on the free lists (excludes the bump region). *)

val reset_allocator : t -> free:(addr * int) list -> unit
(** Used by the GC: drop the volatile free lists and replace them with
    the given [(addr, words)] blocks, writing a free header for each. *)

(** {1 Field access} *)

val field_addr : t -> addr -> int -> int
val load_field : t -> addr -> int -> int64
val store_field : t -> addr -> int -> int64 -> unit
val cas_field : t -> addr -> int -> expected:int64 -> desired:int64 -> bool
val load_field_int : t -> addr -> int -> int
val store_field_int : t -> addr -> int -> int -> unit
val cas_field_int : t -> addr -> int -> expected:int -> desired:int -> bool

(** {1 Introspection} *)

val kind_of : t -> addr -> int
val words_of : t -> addr -> int

val is_object_start : t -> addr -> bool
(** Cost-free check that a valid, non-free object header precedes
    [addr]. *)

val fold_blocks_checked :
  t ->
  costed:bool ->
  (addr:addr -> kind:int -> words:int -> unit) ->
  (unit, int * string) result
(** Walk every block (live and free) in address order, reading each
    full 64-bit header word with a costed {!Nvm.Pmem.load} when
    [costed] (the eager collector: recovery work is real work) and a
    cost-free {!Nvm.Pmem.peek} otherwise (the streamed ones, which bill
    the lines the walk touched).  The header is decoded where it is
    read, so the walk boxes no [int64].  On the first invalid or
    overrunning header it stops and returns
    [Error (header_addr, diagnosis)]: everything before [header_addr]
    was walked normally, everything from it to the heap end is
    unparseable and should be quarantined, not reused. *)

val iter_blocks : t -> (addr:addr -> kind:int -> words:int -> unit) -> unit
(** {!fold_blocks_checked} over costed loads, raising instead of
    returning the diagnosis.
    @raise Corrupt on an invalid or overrunning header. *)

val set_debug_checks : bool -> unit
(** Globally enable paranoid field-access validation (header magic and
    index bounds on every access, via cost-free peeks).  Slow; meant for
    the test suite. *)
