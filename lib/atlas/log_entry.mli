(** Undo-log entry codec.

    Entries are exactly four words (32 bytes) so they never straddle more
    than one cache-line boundary and the ring arithmetic stays trivial:

    {v  w0: [ magic:8 | type:8 | checksum:16 | tid:32 ]
        w1: global sequence number
        w2: payload a
        w3: payload b v}

    The checksum covers w1..w3 and the type, making entries
    self-validating: recovery can scan a log forward and recognise where
    the valid window ends without trusting a separately-persisted head
    pointer.  A torn entry (some words persisted, some lost in a non-TSP
    crash) fails the checksum; a stale entry from a previous ring lap
    breaks the strictly-increasing-sequence rule. *)

type payload =
  | Begin of { ocs : int }  (** an outermost critical section opened *)
  | Update of { addr : int; old : int64 }
      (** first store of this OCS to [addr]; [old] restores it on rollback *)
  | Dep of { on_ocs : int; mutex : int }
      (** the running OCS acquired [mutex], last released by [on_ocs]: if
          [on_ocs] rolls back, so must this OCS (the Section 2.3 hazard) *)
  | Commit of { ocs : int }

type t = { seq : int; tid : int; payload : payload }

val bytes : int
(** Size of an encoded entry: 32. *)

(** {1 Header type codes}

    The type byte of [w0], one code per {!payload} constructor. *)

val begin_ty : int
val update_ty : int
val dep_ty : int
val commit_ty : int

val words : payload -> int * int * int64
(** [(ty, a, b)]: a payload's type code and its two payload words, as
    {!write} takes them and {!read} decodes them. *)

val write :
  Nvm.Pmem.t -> at:int -> ty:int -> seq:int -> tid:int -> a:int -> b:int64 -> unit
(** [write pmem ~at ~ty ~seq ~tid ~a ~b] encodes an entry from its
    words ([ty], [a] and [b] as {!words} gives them) into four costed
    device stores at [at]: [w1], [w2], [w3], and the header [w0] last,
    so {!read} at [at] returns the entry those words spell.  Inlined
    into its caller, it builds no record, payload or closure and boxes
    no word. *)

val read : (int -> int64) -> at:int -> t option
(** Decode and validate; [None] if magic or checksum fail. *)

val pp : t Fmt.t
