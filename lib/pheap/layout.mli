(** On-media layout of the persistent heap.

    The heap occupies a contiguous byte range of the NVM region:

    {v
    base+ 0  heap magic ("TSPHEAP1")
    base+ 8  root pointer (absolute byte address of an object, 0 = null)
    base+16  heap_end: absolute byte address one past the last allocated
             block (bump high-water mark)
    base+24  heap size in bytes
    base+32..base+63  reserved
    base+64  first object header
    v}

    Each object is a header word followed by [words] data words.  The
    address of an object is the address of its {e first data word}; its
    header lives 8 bytes below.  Header encoding (one 64-bit word):

    {v  [ magic:8 | kind:8 | reserved:16 | size_words:32 ]  v} *)

val word_size : int
val heap_magic : int64
val header_bytes : int  (** bytes from base to the first object header *)

val root_offset : int
val heap_end_offset : int
val heap_size_offset : int

val encode_header : kind:int -> words:int -> int64
val header_kind : int64 -> int
val header_words : int64 -> int
val header_valid : int64 -> bool

val header_kind_i : int -> int
val header_words_i : int -> int
(** Unboxed decode over [Int64.to_int] of a header word.  The conversion
    drops bit 63 (the magic byte's top bit), so these decode headers
    already validated with {!header_valid}; they cannot check one. *)

val kind_free : int
(** Kind of a free block; never registered in {!Kind}. *)

val obj_header_addr : int -> int
(** Header address of the object at data address [addr]. *)

val obj_total_bytes : words:int -> int
(** Bytes occupied by header + data. *)
