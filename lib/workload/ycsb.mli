(** YCSB-style workload mixes over the persistent maps.

    The paper's microbenchmark fixes one operation mix; real key-value
    evaluations standardise on the YCSB core workloads with a Zipfian
    request distribution.  This module adds both, so the TSP overhead
    story can be read at the operating points practitioners expect:

    - A: update heavy (50% read / 50% update)
    - B: read mostly (95% read / 5% update)
    - C: read only
    - F: read-modify-write (50% read / 50% atomic RMW)

    Updates overwrite existing records (the working set is pre-loaded);
    no workload here inserts, so the record count is an invariant the
    verifier checks after crashes. *)

type preset = A | B | C | F

val preset_to_string : preset -> string
val preset_of_string : string -> (preset, string) result
val all_presets : preset list

(** {1 Zipfian request distribution}

    The standard Gray et al. rejection-free generator with
    [theta = 0.99], as used by YCSB itself: rank 0 is the hottest key. *)

module Zipf : sig
  type t

  val create : ?theta:float -> n:int -> unit -> t
  (** Precomputes the harmonic normalisers for [n] items.
      [theta = 0.] is accepted as the uniform degenerate case (every
      rank equally likely).
      @raise Invalid_argument unless [0 <= theta < 1] and [n > 0]. *)

  val sample : t -> Sched.Sim_rng.t -> int
  (** A rank in [\[0, n)], skewed toward small ranks. *)
end

type op = Read | Update | Rmw

val pick_op : preset -> Sched.Sim_rng.t -> op
(** Draw the next operation per the preset's mix. *)
