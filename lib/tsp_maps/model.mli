(** Pure sequential oracle of the {!Map_intf.ops} interface.

    The durable-linearizability checker (lib/check) reasons about map
    histories algebraically; this module is the executable ground truth
    it is cross-validated against: apply a candidate linearization to
    the model and compare final states.  Semantics mirror both
    implementations exactly — [set] inserts or overwrites, [remove]
    deletes and reports presence, and [incr] on an absent key inserts
    the increment itself ([Chained_hashmap] and [Lockfree_skiplist]
    agree on this). *)

type t

val empty : t

val set : t -> key:int -> value:int64 -> t
val get : t -> key:int -> int64 option
val incr : t -> key:int -> by:int64 -> t
val remove : t -> key:int -> t * bool

val entries : t -> (int * int64) list
(** In ascending key order. *)

val equal_entries : (int * int64) list -> (int * int64) list -> bool
(** Order-insensitive comparison of two entry dumps. *)
