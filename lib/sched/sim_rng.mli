(** Deterministic splitmix64 pseudo-random number generator.

    Every source of randomness in the simulator flows through one of
    these, seeded explicitly, so a run is a pure function of its seed —
    which is what makes fault-injection campaigns reproducible.

    The state is stored as two 32-bit native-int halves and each draw
    computes on unboxed [int64] locals, so {!int}, {!bool} and {!float}
    draw without allocating — the per-step cost jitter draw sits on the
    simulator's hottest path.  {!int} masks a power-of-two bound and
    takes one 64-bit remainder for any other.  The output stream is
    bit-identical to the boxed [int64] reference implementation (the
    test suite checks them against each other draw by draw). *)

type t

val create : seed:int -> t

val copy : t -> t
(** Independent clone with the same current state. *)

val split : t -> t
(** Derive an independent child generator (e.g. one per thread). *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. [n] must be positive. *)

val bool : t -> bool
val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)
