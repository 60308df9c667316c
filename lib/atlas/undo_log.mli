(** Per-thread undo-log ring buffers in NVM.

    On-media layout of the log region:

    {v
    base+ 0  log magic ("TSPLOG11")
    base+ 8  number of thread buffers
    base+16  bytes per buffer
    base+64  descriptor for thread 0: [tail address | reserved]
    base+80  descriptor for thread 1 ...
    ...      buffers, one per thread, line-aligned
    v}

    Each buffer is a ring of 32-byte {!Log_entry} slots.  The persistent
    descriptor holds only the {e tail} (oldest unpruned entry); the head
    is rediscovered after a crash by scanning forward while entries are
    valid and their sequence numbers strictly increase.  The slot at the
    head is always kept with a zeroed header word (a sentinel), so a scan
    can never run off the fresh window into stale entries from a previous
    ring lap — without the sentinel, a stale [Begin] whose [Commit] had
    been overwritten would masquerade as an interrupted OCS and recovery
    would "roll back" a section that actually committed long ago. *)

type t

exception Log_full of { tid : int }
(** The writer caught up with the tail: unpruned entries fill the ring.
    Seen only under deep OCS nesting with undersized buffers. *)

val format : Nvm.Pmem.t -> base:int -> size:int -> num_threads:int -> t
(** Initialise (or re-initialise, after recovery) the log region:
    descriptors written, every tail at its buffer start, sentinels
    zeroed, and the formatting flushed — an empty log must be durable
    even without TSP. *)

val attach : Nvm.Pmem.t -> base:int -> t
(** Attach for recovery: reads the region header.
    @raise Invalid_argument if the header does not validate
    (see {!attach_result}). *)

val attach_result : Nvm.Pmem.t -> base:int -> (t, string) result
(** Graceful {!attach}: after bit rot every header field may be garbage,
    so the magic, thread count, buffer size and overall layout are each
    validated before being trusted as an address or a loop bound.
    [Error] carries a human-readable diagnosis; the region is left
    untouched. *)

val num_threads : t -> int
val capacity_entries : t -> int

(** {1 Writer side (failure-free operation)} *)

val append_words :
  t -> tid:int -> ty:int -> seq:int -> a:int -> b:int64 -> int
(** Write an entry, given by its words as {!Log_entry.write} takes them
    ([tid] goes into its header), at the head of [tid]'s ring, advance
    the head and re-plant the sentinel.  Returns the entry's address.
    The runtime's append: inlined, it allocates nothing.
    @raise Log_full when the ring has no free slot. *)

val append : t -> tid:int -> Log_entry.t -> int
(** {!append_words} of an entry record's words.  The header records
    [tid]; the record's own [tid] field is not read. *)

val flush_entry : t -> entry_addr:int -> unit
(** Synchronously persist an appended entry {e and} its sentinel: flush
    the entry's line, flush the sentinel's line when it differs, fence.
    This — per entry, before the guarded store — is exactly the overhead
    TSP removes. *)

val advance_tail : t -> tid:int -> new_tail:int -> flush:bool -> unit
(** Prune: move [tid]'s persistent tail to [new_tail] (the address one
    past a stable segment, wrapped).  [flush] persists the descriptor
    synchronously (Log_flush mode). *)

val next_slot : t -> int -> int
(** Ring successor of an entry address. *)

val live_entries : t -> tid:int -> int
(** Entries currently between tail and head of [tid]'s ring. *)

val set_watermark : t -> int -> unit
(** Persist the durability watermark: the highest commit sequence whose
    section data has reached the persistence domain.  Synchronous
    (flush + fence): the watermark must never run ahead of the data. *)

val watermark : t -> int
(** Current persistent watermark; -1 when the mode does not use one. *)

(** {1 Recovery side} *)

val scan_thread :
  t ->
  tid:int ->
  read:(int -> int64) ->
  (Log_entry.t list * int, string) result
(** Scan [tid]'s ring, reading every word (the tail descriptor, entry
    decodes and the orphan probe) with [read]: a costed
    {!Nvm.Pmem.load} for the eager recovery scan, a cost-free peek that
    counts words for the streamed one — peeks have no cache effects, so
    scans of distinct threads' rings may then run concurrently with a
    deterministic outcome.  Hardened for adversarial images.  [Error]
    when the persistent tail descriptor is not a valid slot address in
    [tid]'s buffer (the whole thread log is unusable).
    [Ok (entries, orphans)] otherwise: [entries] is the valid window in
    append order — from the persistent tail forward while entries
    decode and sequence numbers strictly increase, stopping at the
    sentinel — and [orphans] counts decodable entries {e beyond} the
    cut whose sequence numbers continue the window: evidence that the
    scan was truncated at a torn or corrupted entry rather than stopping
    at the log's natural head.  Orphaned entries are deliberately not
    replayed (nothing after a tear can be trusted); recovery reports
    them as degradation instead. *)
