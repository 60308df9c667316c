(** Deterministic heap population at scale.

    The recovery-complexity experiments (E22) need heaps of 10^5..10^6+
    objects whose exact image is a pure function of (variant, object
    count, seed) — the same heap must be reproducible across runs,
    modes and job counts so recovery measurements compare like with
    like.  This module sizes a machine's region for the requested count,
    builds the map through its uninstrumented [set_plain] path, and
    persists everything, producing a durable heap ready to crash. *)

val keys : objects:int -> seed:int -> int array
(** The population's key sequence: the first [objects] data keys
    ({!Key_space.h_key}), Fisher-Yates-shuffled by a seed-derived
    stream.  Values are the keys themselves ([Int64.of_int key]), so
    every read-back is self-checking. *)

val sized_spec : Machine.config -> objects:int -> Machine.config
(** Grow the config's region (never shrink) to fit [objects] map entries
    plus log and slack, and — for the hash-map variant — scale the
    bucket count with the population so insertion stays linear. *)

val fill : Machine.t -> objects:int -> seed:int -> unit
(** Insert the {!keys} population via [set_plain] and persist the
    device.  The machine must have been created with a {!sized_spec}
    (or an otherwise large-enough region). *)

val build : Machine.config -> objects:int -> seed:int -> Machine.t
(** [create (sized_spec spec ~objects)] + {!fill}. *)
