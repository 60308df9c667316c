(* Integer comparisons as compiler primitives.  The per-op modules
   ([Cache], [Memory], [Pmem], [Intset], [Scheduler], [Sim_rng]) open
   this module, so every [=], [<] or [compare] in them is an int
   comparison the native compiler expands inline, and a comparison of
   any other type there is a type error instead of a silent C call into
   the polymorphic [compare_val].

   They are [external]s, not functions, so they expand inline in any
   build: a function is inlined across modules only without [-opaque]
   (the release profile dune-workspace selects), a [%]-primitive
   wherever it is used, [--profile dev] included. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"
