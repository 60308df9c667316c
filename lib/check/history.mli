(** Operation-history recorder for the durable-linearizability checker.

    [wrap] interposes on a {!Tsp_maps.Map_intf.ops} record and logs, for
    every map operation, its {e invocation} (op, key, argument, thread,
    virtual clock on entry) and — if the operation returns — its
    {e response} (result, virtual clock on exit).  The two clock reads
    come from {!Sched.Scheduler.now}, which is a single field load: no
    randomness is drawn and no cycles are charged, so a recorded run has
    {e bit-identical} simulated behaviour (steps, clocks, interleavings,
    crash states) to an unrecorded one.  The bench A/B cell
    [history_recording] asserts exactly that.

    Crash semantics fall out of the scheduler's injection mechanism: a
    crash abandons the continuation of every thread mid-operation, so an
    operation interrupted by the crash never reaches its response write
    and stays {e pending} ([t1 = -1]).  An operation whose response was
    recorded is {e completed}: its effect was acknowledged to the caller
    before the crash, which is precisely the set that strict durable
    linearizability requires to survive.

    Storage is struct-of-arrays over {!Ivec}, one slot of seven [int]
    fields per operation.  Values and increments are stored as
    [Int64.to_int] — the workloads use small counters, and the 63-bit
    truncation is harmless there; the checker converts back with
    [Int64.of_int]. *)

type t

type op = Set | Get | Incr | Remove

type record = {
  op : op;
  key : int;
  arg : int64;  (** [set]'s value / [incr]'s [by]; [0L] for get/remove *)
  tid : int;
  t0 : int;  (** virtual clock at invocation *)
  t1 : int;  (** virtual clock at response, or [-1] if pending *)
  ok : bool;  (** get: key present; remove: key removed; else false *)
  result : int64;  (** get: value read if [ok]; else [0L] *)
}

val create : sched:Sched.Scheduler.t -> ?capacity:int -> unit -> t
(** [capacity] (default 1024) preallocates slots for that many
    operations; beyond it the storage doubles. *)

val wrap : t -> Tsp_maps.Map_intf.ops -> Tsp_maps.Map_intf.ops
(** The recording interposer.  Must only be called (and the returned ops
    only used) from inside simulated threads, since it reads
    {!Sched.Scheduler.now}. *)

val length : t -> int
(** Operations recorded so far (completed and pending). *)

val nth : t -> int -> record
(** Records are indexed in invocation order. *)

val records : t -> record list
(** All records, in invocation order. *)

val completed : t -> int
val pending : t -> int

