(** Integer-only comparison operators, for [open] at the top of a module
    on the simulator's per-operation path.  Each is a compiler primitive,
    expanded inline even across modules compiled with [-opaque]; a
    comparison of non-int values in a module that opens this one does
    not type-check. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"
