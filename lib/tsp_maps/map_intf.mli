(** The common "map" interface of Section 5.1: a local key-value store
    from integer keys to integer values, shared by the mutex-based hash
    table and the lock-free skip list so the workload driver and the
    benchmarks treat them uniformly. *)

type ops = {
  name : string;
  set : tid:int -> key:int -> value:int64 -> unit;
      (** insert or overwrite, atomically and in isolation *)
  get : tid:int -> key:int -> int64 option;
  incr : tid:int -> key:int -> by:int64 -> unit;
      (** atomic read-modify-write; inserts [by] when the key is absent *)
  remove : tid:int -> key:int -> bool;
}
