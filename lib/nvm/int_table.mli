(** Hash tables keyed by ints, for bookkeeping off the device's access
    path (Atlas's section table, the heap's free lists).

    A key is hashed by one multiply and one shift, not by the C
    [caml_hash] behind the polymorphic [Hashtbl].  The hash ignores the
    seed, so [create ~random:true] changes nothing.  Bucket order, and
    so the order of [iter] and [fold], differs from the polymorphic
    table's: a table whose iteration order reaches an output (a flush
    order, a rollback order) stays a [Hashtbl]. *)

include Hashtbl.SeededS with type key = int
