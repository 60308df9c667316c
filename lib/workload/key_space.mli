(** The key-space split of Section 5.1: a small lower range [L] holds the
    per-thread integrity counters, the much larger higher range [H] holds
    the data keys whose values the workload increments. *)

val c1 : tid:int -> int
(** Key of thread [tid]'s first counter (written {e before} the data
    increment each iteration). *)

val c2 : tid:int -> int
(** Key of thread [tid]'s second counter (written {e after}). *)

val l_size : threads:int -> int

val h_key : int -> int
(** [h_key i] is the [i]-th data key. *)

val is_h : int -> bool
val is_counter : threads:int -> int -> bool
