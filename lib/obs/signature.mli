(** Normalized failure signatures: a stable identity for "the same bug"
    observed across campaigns, seeds and crash points, so triage can
    dedupe a thousand-point campaign to its distinct failure modes.

    A signature hashes failure class x phase (fault model or campaign
    leg) x normalized invariant diagnosis x key-set shape — and nothing
    that varies per run: no seeds, no crash steps, no cycle counts.
    {!normalize} collapses every digit run in a diagnosis to ['#'], so
    per-key details hash identically; the key-set {e cardinality} is
    bucketed by {!shape_of_count} into none/single/few/many. *)

type t = private {
  klass : string;  (** failure class: raise, unrecoverable, invariant... *)
  phase : string;  (** fault model or campaign leg the failure surfaced in *)
  invariant : string;  (** normalized first failing check or error *)
  shape : string;  (** bucketed failing-key cardinality *)
  hash : string;  (** 16 hex digits, FNV-1a over the four fields *)
}

val make : klass:string -> phase:string -> invariant:string -> shape:string -> t
(** Builds the signature from the four components, normalizing each
    ({!normalize} is idempotent, so feeding a signature's own fields
    back yields the identical signature). *)

val normalize : string -> string
(** Collapse every maximal digit run to ['#'].  Idempotent. *)

val shape_of_count : int -> string
(** [none] (<= 0), [single], [few] (2-4) or [many]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val tally : t list -> (t * int) list
(** The distinct signatures with their multiplicities, in first-seen
    order: a campaign's failures deduped to its failure modes. *)

val pp : t Fmt.t

val to_json : Json.t -> t -> unit
(** Emit [{hash, class, phase, invariant, shape}]. *)

val tally_to_json : Json.t -> (t * int) list -> unit
(** Emit a {!tally} as an array of [{signature, count}] objects. *)
