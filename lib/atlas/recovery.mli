(** Atlas recovery: restore the persistent heap to a consistent state
    after a crash, using the undo logs.

    The pass runs after {!Nvm.Pmem.recover} has installed the durable
    image.  It scans every thread's log window, reconstructs the set of
    outermost critical sections and their dependency edges, computes the
    rollback closure — every section that was interrupted by the crash,
    plus, transitively, every {e committed} section that depended on one
    being rolled back — and applies the affected [Update] entries in
    reverse global order.  It finishes by persisting its own repairs.

    Callers normally follow with {!Pheap.Heap_gc.collect} to reclaim
    objects orphaned by the crash or by the rollback itself, and with
    {!Undo_log.format} (via a fresh {!Runtime.create}) before resuming. *)

type verdict =
  | Clean  (** recovery used every log entry and trusted all of it *)
  | Degraded of string list
      (** recovery completed but had to discount part of the image:
          truncated thread logs, unusable descriptors, skipped rollback
          targets or structural anomalies — one human-readable reason
          each.  The heap sections covered by validated log entries are
          consistent; the discounted parts may have lost updates. *)
  | Unrecoverable of string
      (** the log region header itself did not validate: no rollback was
          attempted (re-formatting the region is the only way forward) *)

type report = {
  log_entries : int;  (** valid entries scanned across all threads *)
  ocses : int;  (** distinct sections seen in the logs *)
  committed : int;
  incomplete : int;  (** sections interrupted by the crash *)
  cascaded : int;  (** committed sections rolled back via dependencies *)
  updates_applied : int;
  updates_skipped : int;  (** entries whose target address failed validation *)
  max_seq : int;  (** highest sequence seen; seed for the next runtime *)
  anomalies : string list;
      (** structurally unexpected log content — empty under TSP, possibly
          non-empty after a non-TSP crash lost log writes *)
  truncated_entries : int;
      (** decodable entries stranded beyond a torn or corrupt slot (see
          {!Undo_log.scan_thread}); never replayed *)
  verdict : verdict;
}

(** Both modes scan the rings in one loop, in tid order, with the one
    ring scan {!Undo_log.scan_thread}, and differ only in the reader
    they hand it, so they produce the same report, verdict and heap
    repairs; only the cycle bill differs. *)
type scan_mode =
  | Costed_scan
      (** the default: every log word is read with a costed
          {!Nvm.Pmem.load} — the per-word charge sequence the eager
          recovery cycle counts pin *)
  | Streamed_scan
      (** every log word is read with a cost-free peek that counts
          words, and one analytic bill is charged at the end (cache
          lines of log words read x cold-miss cost) *)

val run : ?scan:scan_mode -> heap:Pheap.Heap.t -> log_base:int -> unit -> report
(** Perform rollback.  The heap's device must not be in the crashed
    state (call {!Nvm.Pmem.recover} first).

    Never raises on adversarial images: every header field, descriptor
    and log entry is validated before use, damage is reported through
    [verdict], and rollback proceeds with whatever validated.  The pass
    does not mutate the logs themselves (only heap words and its own
    persist), so running it twice is idempotent — including when the
    first attempt is cut short by a second crash. *)

val orphan_warning : tid:int -> orphans:int -> string option
(** The [Degraded] reason for a checksum-truncated thread log: [None]
    when [orphans <= 0] (no degradation), otherwise the message recovery
    attaches, with singular/plural agreement.  Exposed so the verdict
    formatting is testable in isolation. *)

val pp_verdict : verdict Fmt.t
val pp_report : report Fmt.t
