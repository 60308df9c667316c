(** Recovery-time mark-sweep garbage collector.

    Crashes can leak persistent memory: an interrupted operation may have
    allocated objects that never became reachable, and Atlas rollback can
    orphan objects allocated inside an undone critical section.  Following
    Atlas's design (Section 4.2 of the paper), leaks are reclaimed by a
    collector that runs during recovery rather than by making the
    allocator itself failure-atomic.

    One scanner, one planner, two traversals, two readers.  Every mode
    marks from the heap root with the {!Kind} registry's one scanner per
    kind, then plans the sweep with one planner: a linear walk of the
    block chain that coalesces runs of dead and free blocks into single
    free blocks, and quarantines the tail from the first header that
    does not parse.  Applying the plan is one {!Heap.reset_allocator}.
    What differs between modes is only the reader and the traversal.

    - {!collect} (eager) reads through costed device loads, so recovery
      time shows up in the simulated clock — TSP moves work to recovery,
      and the simulator charges for it honestly.  Its mark is a DFS,
      because the per-word cache simulation makes the charge sequence
      follow the visit order, and the pinned eager cycle counts are that
      order's.
    - {!collect_streamed} and {!Incremental} read with cost-free peeks,
      count the cache lines they touch, and charge one analytic bill
      (every counted line at the cold-miss price — a streaming scan
      fetches each object's span once, with no reuse between objects).
      Their mark is a level-synchronous BFS in fixed-size chunks, so it
      parallelises and stays byte-identical for any worker count.
      {!Incremental} splits the same bill into a resumable budget so a
      recovering service can serve reads while the collector catches up
      in the background.

    Because the scanner and the planner are shared, every mode reaches
    the same mark set, frees the same blocks, quarantines the same tail
    with the same reasons, and leaves the same heap image; only the
    cycle counts differ (and the order of unscannable-object reasons,
    which the two traversals reach in different orders).

    Every mode keeps its mark set in a {!Markset}: one bit per heap word
    of the span the collection starts on, allocated once (span / 64
    bytes) and never grown or hashed.  The set only answers membership,
    so it moves no cycle: the traversal orders live in the mark stack
    and the frontiers. *)

type stats = {
  live_objects : int;
  live_words : int;
  freed_objects : int;  (** dead objects reclaimed (excludes free blocks) *)
  freed_words : int;  (** total words returned to the free lists *)
  coalesced_blocks : int;  (** resulting free blocks after coalescing *)
  dangling_refs : int;
      (** pointers from live objects that did not refer to a valid object;
          non-zero indicates heap damage (expected after non-TSP crashes) *)
  mark_cycles : int;
      (** simulated cycles spent marking (clock delta; analytic charge in
          the streamed modes) — matches the tracer's [gc_mark] phase *)
  sweep_cycles : int;
      (** simulated cycles spent sweeping and rebuilding the free lists —
          matches the tracer's [gc_sweep] phase *)
}

type quarantine = {
  unscannable : int;
      (** reachable objects that could not be traversed (unregistered
          kind byte, implausible size); kept live, never freed *)
  quarantined_words : int;
      (** words in the unparseable heap tail withheld from the free
          lists (0 when the whole block chain parsed) *)
  reasons : string list;  (** one human-readable diagnosis per problem *)
}

val collect : Heap.t -> stats * quarantine
(** Eager collection over costed loads.  Never raises, even on an
    adversarial image: objects whose scan blows up stay marked but
    untraversed; if the block chain stops parsing partway, the blocks
    before the damage sweep normally and the tail is quarantined —
    withheld from the allocator rather than reused.  On a healthy heap
    the quarantine is empty. *)

val reachable : Heap.t -> Markset.t
(** The eager mark set: every object reachable from the root through
    scannable objects (costed, like {!collect}'s mark), one bit per word
    of the heap's current span. *)

val collect_streamed :
  ?fanout:((unit -> unit) list -> unit) -> Heap.t -> stats * quarantine
(** Graceful collection under the streamed cost model.  Discovery is a
    level-synchronous BFS over cost-free peeks: each frontier is split
    into fixed-size chunks, [fanout] runs the chunk thunks (default:
    sequentially; pass a domain-pool runner to parallelise — every thunk
    must have completed when [fanout] returns), and a sequential merge
    in chunk order builds the mark set.  Chunking is independent of the
    worker count, peeks have no cache effects, and the charge is a
    single analytic bill (counted lines × cold-miss cost), so the
    stats, the verdict inputs and the post-collection heap image are
    byte-identical for any [fanout].  The stats apart from the cycle
    counts, the quarantine (up to the order of its reasons) and the
    swept heap image match the eager {!collect}'s exactly; only the
    simulated cycle accounting differs (counted lines × cold-miss
    instead of per-word cache simulation).  It is the {!Incremental}
    plan paid at once: {!Incremental.start}, the mark bill charged in
    the GC mark phase, then {!Incremental.finish} in the sweep phase. *)

(** Incremental collection: plan everything up front with peeks (no
    stores, no charges — a crash at any point before {!Incremental.finish}
    leaves the heap image untouched, so recovery simply restarts), then
    pay for it in slices.  The service layer drains the budget from a
    background fiber via {!Incremental.advance} while serving requests,
    charging each key's first touch via {!Incremental.on_demand};
    {!Incremental.finish} pays any remainder and applies the one
    mutating step, the allocator reset. *)
module Incremental : sig
  type t

  val start : ?fanout:((unit -> unit) list -> unit) -> Heap.t -> t
  (** Discover the live set and plan the sweep (peeks only).  The
      resulting budget equals {!collect_streamed}'s analytic mark +
      sweep charge. *)

  val total_cycles : t -> int
  (** The full analytic mark + sweep bill. *)

  val plan : t -> stats * quarantine
  (** The planned outcome (what {!finish} will return), available
      immediately after {!start} — recovery verdicts need the
      quarantine before the background collection completes.  No side
      effects. *)

  val remaining_cycles : t -> int

  val advance : t -> budget:int -> int
  (** Charge up to [budget] cycles of background collection work and
      return the amount actually consumed (0 once drained or
      finished). *)

  val on_demand : t -> int
  (** Charge the {e average} per-object recovery cost for one
      first-touch — for callers (the request path of a recovering
      service) that track touched keys themselves.  At least one cold
      miss; counts toward the budget; 0 once finished.  Returns the
      cost charged. *)

  val on_demand_count : t -> int
  (** {!on_demand} calls so far. *)

  val finish : t -> stats * quarantine
  (** Pay any remaining budget and apply the allocator reset.
      Memoised: later calls return the same result without recharging.
      The resulting heap image matches {!collect_streamed}'s. *)
end

val verify : Heap.t -> (unit, string list) result
(** Cost-free structural audit (used by tests and the fault-injection
    verdict): block chain parses, kinds are registered, live pointers
    target valid objects.  Returns all problems found, in walk order;
    an exception a scanner raises propagates.  Its host memory is one
    tag byte per heap word; headers are decoded in a register, so a live
    object costs it no allocation (under one minor word, as a test
    guards). *)

val pp_stats : stats Fmt.t
