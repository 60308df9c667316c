(** The three fortification levels measured in Table 1 of the paper. *)

type t =
  | No_log
      (** Unfortified native code: no logging, no flushing.  Fast, but a
          crash inside a critical section leaves the heap inconsistent —
          the baseline column of Table 1, and the negative control of the
          fault-injection experiments. *)
  | Log_only
      (** Atlas in TSP mode: undo logging without synchronous flushing.
          Sufficient for consistent recovery whenever TSP guarantees that
          a tolerated failure rescues dirty cache lines. *)
  | Log_flush
      (** Atlas without TSP, eager durability: every undo-log entry is
          synchronously flushed before the corresponding store, and an
          outermost critical section's data is flushed at commit. *)
  | Log_flush_async
      (** Atlas without TSP, deferred durability (closer to the original
          Atlas): log entries are still flushed synchronously, but a
          section's data is {e not} flushed at commit.  Instead a
          periodic durability point flushes all data dirtied by commits
          so far and advances a persistent watermark; recovery rolls
          back every section the watermark does not cover — including
          committed ones.  The ablation DESIGN.md calls out. *)

val all : t list
val to_string : t -> string
val of_string : string -> (t, string) result

val logs : t -> bool
(** Whether the mode maintains an undo log at all. *)

val flushes : t -> bool
(** Whether the mode synchronously flushes log entries before stores. *)

val eager_data_flush : t -> bool
(** Whether a section's dirtied data is flushed at its commit. *)

val deferred_durability : t -> bool
(** Whether durability is granted in batches at durability points. *)
