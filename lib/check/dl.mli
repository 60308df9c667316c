(** Durable-linearizability verdict over a recorded history.

    After a crash and recovery, the recovered map state must be
    explained by {e some} linearization of a {e prefix-closed} subset of
    the operation history ("The Path to Durable Linearizability",
    D'Osualdo/Raad/Vafeiadis; NVTraverse, Friedman et al.).  This module
    implements the {e strict} variant appropriate for rescue-class crash
    semantics (the paper's TSP verdicts, fault models [None] /
    [Full_rescue]): every {e completed} operation — one whose response
    the caller observed before the crash — must survive; every
    {e pending} operation — invoked but never acknowledged — may take
    effect or not; and nothing else may appear.  Prefix-closure is then
    automatic: a pending operation never really-time-precedes anything
    (its response interval is open), so the surviving subset "all
    completed + any pending" is closed under real-time precedence.

    The check is per key ("per-location"): map operations on distinct
    keys commute, so a post-crash state is explainable iff each key's
    recovered value is explainable from that key's operations alone.
    [Get]s are recorded for diagnosis but do not constrain the verdict
    (they read state rather than produce it).

    Per key the explanation is algebraic rather than enumerative.
    Real-time precedence between two operations is [a ≺ b] iff
    [a.t1 >= 0 && a.t1 < b.t0] (a pending [a] precedes nothing).  A
    linearization's final value for a key is determined by its last
    {e absolute} operation ([Set]/[Remove], or the initial state) plus
    the [Incr]s linearized after it; an [incr] on an absent key inserts
    its increment, matching both map implementations.  So the checker
    enumerates admissible "last absolute op" candidates — an absolute op
    [a] qualifies iff no completed absolute op on the same key must
    follow it ([a ≺ b]) — then splits the key's increments into {e
    before} (must precede the base), {e forced} (must follow it) and
    {e optional} (overlapping, or pending and thus droppable), and asks
    whether the recovered value equals base + forced + some subset-sum
    of the optional increments.  When all optional increments are equal
    (the workloads' [by:1] case) the subset-sum is a range check;
    otherwise small sets are enumerated and sets larger than
    {!subset_limit} are accepted conservatively (counted in
    [stats.capped], never a false alarm). *)

type stats = {
  ops : int;  (** operations in the history *)
  completed : int;
  pending : int;
  keys : int;  (** distinct keys checked (history ∪ initial ∪ recovered) *)
  capped : int;
      (** keys whose optional-increment subset-sum exceeded
          {!subset_limit} and was accepted conservatively *)
}

type violation = {
  key : int;
  detail : string;  (** deterministic human-readable diagnosis *)
}

type verdict =
  | Explained of stats
      (** some linearization of completed + a subset of pending ops
          yields exactly the recovered state *)
  | Violation of stats * violation list
      (** keys whose recovered value no admissible linearization
          explains, in ascending key order *)

val subset_limit : int
(** Optional-increment count beyond which the subset-sum check is
    conservatively accepted (only reachable with unequal increments). *)

val check_records :
  initial:(int * int64) list ->
  records:History.record list ->
  recovered:(int * int64) list ->
  verdict
(** [initial] is the map contents at the recording start (after
    preload), [recovered] the post-crash, post-recovery enumeration;
    neither needs to be sorted.  A key [recovered] lists more than once
    is a violation of its own (a map holds each key once), counted once
    in [stats.keys].  The host work is sized by the writes: every key is
    indexed once, only a key some [Set]/[Incr]/[Remove] touched is
    explained from its operations, and an untouched key is explained
    exactly when its recovered value is its initial one.
    @raise Invalid_argument when [initial] lists a key twice. *)

val check_keys :
  keys:int array ->
  value:(int -> int64) ->
  same:(int -> int64 -> bool) ->
  records:History.record list ->
  recovered:(int * int64) list ->
  verdict
(** {!check_records} with the initial contents given by position: the
    map held [keys.(i)] with the value [value i], and [same i v] is
    [Int64.equal (value i) v].  No list of the initial contents is
    built: a key no write touched is compared with [same], so a caller
    that computes its values need not box one per key, and [value] is
    called only for a written key or a diagnosis.
    @raise Invalid_argument when [keys] lists a key twice. *)

val check :
  initial:(int * int64) list ->
  history:History.t ->
  recovered:(int * int64) list ->
  verdict

val pp_verdict : Format.formatter -> verdict -> unit
(** One line for [Explained]; one header plus one line per violation
    (capped at 20, deterministically) otherwise. *)

val is_explained : verdict -> bool
