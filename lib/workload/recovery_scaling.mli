(** Recovery-at-scale measurement cells (experiment E22).

    Each cell builds a deterministic heap of N map entries
    ({!Populate}), crashes it, recovers in a chosen
    {!Machine.recovery_mode}, and accounts the outage: total simulated
    cycles, the per-phase split from the tracer registry, GC statistics,
    the deferred background bill (incremental mode) and an FNV digest of
    the recovered heap image.  Because the pre-crash image is a pure
    function of (variant, objects, seed), cells are comparable across
    modes — and the digest plus stats make the byte-identity of the
    parallel path checkable against the sequential one. *)

type cell = {
  variant : Machine.variant;
  objects : int;
  mode : Machine.recovery_mode;
  outage_cycles : int;
      (** simulated cycles from device recovery to "serving again":
          the recovery's [recovery_cycles] *)
  background_cycles : int;
      (** incremental mode: the collection bill paid after the shard is
          already serving; 0 in the other modes *)
  on_demand_touches : int;  (** objects recovered on demand (incremental) *)
  phases : (string * int) list;
      (** nonzero tracer phase registry entries (rescue, log_scan,
          rollback, heap_gc, audit, gc_mark, gc_sweep) *)
  gc : Pheap.Heap_gc.stats option;
  verdict : string;
  heap_audit_ok : bool;
  image_hash : int;
      (** FNV-1a over every heap word after collection completes *)
}

val image_hash : Nvm.Pmem.t -> lo:int -> hi:int -> int
(** FNV-1a over the words of [\[lo, hi)] via cost-free peeks.  Its value
    is the word-by-word fold's, but its host cost follows what a run
    wrote: a whole page of the range that is still the shared zero page
    ({!Nvm.Pmem.peek_page_untouched}) costs one multiply, so hashing the
    56 MiB below a 60k-object heap's log reads only the few MiB the
    heap touched.  Words of pages that were written, and of the partial
    pages at [lo] and [hi], are read one by one. *)

val default_spec : variant:Machine.variant -> seed:int -> Machine.config
(** {!Runner.default_config} with [variant], [seed] and four threads: the
    machine every recovery cell populates. *)

val recover_cell :
  Machine.t ->
  objects:int ->
  mode:Machine.recovery_mode ->
  ?touches:int ->
  unit ->
  cell
(** Crash a machine populated with [objects] entries, recover it in
    [mode] and account the recovery.  [touches] (incremental mode only)
    charges that many on-demand first-touch recoveries before the
    background collection is driven to completion; the collection is
    always finished — and its allocator reset applied — before the
    image digest is taken.  Every field is read from the recovered
    image, the recovery's report, the tracer or the pending
    collection. *)

val run_cell :
  ?spec:Machine.config option ->
  variant:Machine.variant ->
  objects:int ->
  mode:Machine.recovery_mode ->
  seed:int ->
  ?touches:int ->
  unit ->
  cell
(** {!Populate.build} the heap of [spec] (default: {!default_spec} of
    [variant] and [seed]), then {!recover_cell}. *)

val cells_match : cell -> cell -> bool
(** Structural identity of two cells, ignoring [mode] —
    the jobs-identity check: a parallel cell at any job count must
    [cells_match] the same measurement at jobs = 1. *)

val violations : cell list -> string list
(** The rules the cells of one (variant, size) obey, across whatever
    modes they ran in, as one failure message per broken rule: every
    cell passes its heap audit, every cell leaves the first cell's heap
    image, the [Parallel_gc] cells {!cells_match} across job counts, and
    the [Incremental_gc] outage is shorter than the [Eager] one.  Empty
    when all hold. *)

val cell_to_json : Obs.Json.t -> cell -> unit
(** Emit one cell as a results-artifact object: every field is a pure
    function of the cell parameters. *)
