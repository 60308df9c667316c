(** Integrity invariants checked after completed runs and after crash
    recovery. *)

type check = { name : string; ok : bool; detail : string }
type result = { ok : bool; checks : check list }

val sum_h_added :
  initial:(int * int64) list -> (int * int64) list -> int64
(** [sum_h_added ~initial entries]: what a run added to the H keys, the
    sum over the H keys of [entries] of each key's value less its value
    in [initial] (the map before the run's threads started; a key
    [initial] leaves out started at 0).  Ballast ([populate_objects])
    keeps its initial values, so it adds nothing. *)

val counters :
  initial:(int * int64) list ->
  entries:(int * int64) list ->
  threads:int ->
  result
(** The two inequalities of Section 5.1 over a dump of the map, plus the
    per-thread refinement they are derived from:

    - Eq. (1): [0 <= sum c1 - sum c2 <= T]
    - Eq. (2): [sum c1 >= sum(H) >= sum c2], where [sum(H)] is
      {!sum_h_added}
    - per thread: [c2 <= c1 <= c2 + 1] *)

val counters_resumed :
  initial:(int * int64) list ->
  entries:(int * int64) list ->
  threads:int ->
  result
(** The counter invariants adjusted for a run that resumed after a
    crash: because each iteration's three steps are separate atomic
    operations, resumption may redo at most one data increment per
    thread, so Eq. (2)'s upper bound relaxes to
    [sum c1 <= sum H <= sum c1 + T]. *)

val transfers : entries:(int * int64) list -> expected_total:int64 -> result
(** Conservation for the bank-transfer workload: balances sum to the
    initial total and none is negative.  A crash that tears a transfer in
    an unfortified run breaks conservation — the multi-store hazard that
    motivates Atlas. *)

val untorn : wide_entries:(int * int64 array) list -> result
(** For the wide-value workload: every multi-word value must be
    internally consistent (all words written by the same operation).  A
    torn value is a failure-atomicity violation — the store prefix was
    durable, but the update was not atomic. *)

val ycsb : entries:(int * int64) list -> records:int -> result
(** For the YCSB workload: the record count never changes (no workload
    op inserts), and every value remains congruent to its key modulo the
    record count (updates write the canonical value, RMW adds the record
    count). *)

val failed : string -> result
(** A result representing an unverifiable state (e.g. corrupt heap). *)

val pp : result Fmt.t
