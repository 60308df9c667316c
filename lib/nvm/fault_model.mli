(** Adversarial crash fault models.

    The paper's two crash semantics — rescue every dirty line (TSP) or
    drop them all (no TSP) — are the endpoints of a fidelity spectrum.
    A TSP design's "sufficiency" claim must also survive the regimes in
    between, where the rescue itself is interrupted, torn or corrupted:

    - {!Partial_rescue}: the crash-time energy budget (the WSP model's
      stage-1 reserve) exhausts mid-rescue.  A deterministic prefix of
      the dirty lines — lowest line address first, the order the rescue
      walks them — reaches the durable image; the rest are dropped.
    - {!Torn_lines}: a rescued line lands word-torn — only a prefix of
      its words reaches durability, the rest keep their old durable
      contents (the line write-back was interrupted mid-line).
    - {!Bit_rot}: after the crash, a bounded number of bits of the
      durable image flip (media corruption discovered at recovery).

    All randomness is drawn from a caller-supplied RNG closure so
    campaigns stay bit-reproducible for a given seed. *)

type t =
  | Full_rescue  (** TSP holds: every dirty line written back *)
  | Full_discard  (** no TSP: every dirty line lost *)
  | Partial_rescue of { energy_budget_j : float }
      (** rescue energy exhausts after moving the lines the budget
          affords (see {!Pmem.crash}'s [rescue_limit]) *)
  | Torn_lines of { prob : float }
      (** each rescued line is torn with probability [prob] in [0,1] *)
  | Bit_rot of { flips : int }
      (** [flips] uniformly-drawn bit flips in the durable image *)

val adversarial : t -> bool
(** [true] for the three models beyond the paper's binary endpoints.
    Adversarial campaigns are judged on graceful degradation (structured
    recovery verdicts, no exceptions), not on invariant preservation. *)

val expects_loss : t -> bool
(** Whether recovery may legitimately observe missing or damaged state
    under this model ([false] only for {!Full_rescue}). *)

val tag : t -> int
(** Stable small-int constructor index (0 full-rescue .. 4 bit-rot),
    carried as the [a] argument of {!Obs.Event.crash} trace events. *)

val reference : t list
(** One representative instance of each model, used by campaign sweeps
    and the [--fault-model all] CLI shorthand. *)

val to_string : t -> string
(** Round-trips with {!of_string}; parameterised models render as
    [partial-rescue:J], [torn:P], [bit-rot:N]. *)

val of_string : string -> (t, string) result

val of_string_list : string -> (t list, string) result
(** Comma-separated models, or ["all"] for {!reference}. *)

val pp : t Fmt.t
