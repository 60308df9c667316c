(** The run configuration: one cell of the §5 evaluation grid (map
    design x Atlas mode x platform x failure class x workload) and
    everything a run needs to build its machine, drive its threads,
    crash and recover.  {!Machine} and {!Runner} both include this
    module, so [Runner.config] and [Machine.config] are one type.  What a
    configuration stores before its threads start, and whether it can
    run, are {!Runner.initial_entries} and {!Runner.validate}. *)

type variant =
  | Mutex_map of Atlas.Mode.t  (** the separate-chaining hash table *)
  | Mutex_btree of Atlas.Mode.t
      (** the Atlas-fortified B+-tree: an extension beyond the paper's
          two structures, whose node splits are large critical sections *)
  | Nonblocking_map  (** the lock-free skip list *)
  | Nvtraverse_map
      (** the same skip list ({!Tsp_maps.Lockfree_skiplist}) under its
          NVTraverse discipline: unflushed traversal, O(1) flushes in the
          critical update window *)
  | Delayfree_map
      (** the delay-free recoverable-CAS table
          ({!Tsp_maps.Delayfree_map}): announced CASes a crash leaves
          re-executable exactly once by recovery *)

val variant_to_string : variant -> string
(** Display form ("mutex/log-only", "non-blocking", "nvtraverse", ...). *)

val variant_to_cli_string : variant -> string
(** Canonical `tsp --variant` spelling; the single source of truth for
    the CLI parser and the fault injector's reproducer lines. *)

val variant_of_string : string -> (variant, string) result
(** Parse a CLI spelling (canonical or alias).  Round-trips with
    {!variant_to_cli_string} for every variant in {!all_variants}. *)

val all_variants : variant list
(** Every constructor (mutex and btree maps at each Atlas mode, plus the
    three commit-free designs), for frontier sweeps and round-trip
    tests. *)

type workload =
  | Counters of { h_keys : int; preload : bool }
      (** the 3-step iteration of Section 5.1 *)
  | Mixed of { h_keys : int; read_pct : int }
      (** Section 5.1 iterations diluted with read-only iterations:
          [read_pct]%% of iterations perform three gets instead of three
          stores.  Reads are never logged or flushed, so fortification
          overhead falls with the write density (experiment E12). *)
  | Wide of { h_keys : int; value_words : int }
      (** every iteration rewrites all [value_words] words of one value:
          a multi-store update that can tear without rollback even under
          a TSP crash — durability of the store prefix is not atomicity
          (experiment E13; hash map only) *)
  | Ycsb of { preset : Ycsb.preset; records : int }
      (** YCSB core mixes (A/B/C/F) with a Zipfian request distribution
          over a pre-loaded record set; records are value-congruent to
          their keys so crashes are detectable *)
  | Transfers of { accounts : int; initial_balance : int }
      (** bank transfers: multi-store critical sections (hash map
          only) *)

(** How a crashed machine's recovery runs the expensive phases (log scan
    and heap GC):

    - [Eager]: the historical path — every word through the costed cache
      simulation, GC completes before [Machine.recover] returns.  This
      is the charge sequence the committed benchmark snapshots pin.
    - [Parallel_gc jobs]: the streamed engines — log rings and GC mark
      chunks scanned with cost-free peeks, the mark chunks on up to
      [jobs] domains, one analytic cold-miss bill.  Stats, verdicts and
      the recovered heap image are byte-identical for {e any} [jobs]
      (including 1); only host wall-clock changes.
    - [Incremental_gc]: streamed discovery, deferred application.
      [Machine.recover] returns as soon as rollback and GC {e planning}
      are done; the collection bill sits in the machine's [gc_pending]
      for a background fiber to drain
      ({!Pheap.Heap_gc.Incremental.advance}/[on_demand]), and
      [Machine.finish_background_gc] applies the allocator reset.  The
      planned [gc] stats and quarantine — and hence the verdict — are
      already final. *)
type recovery_mode = Eager | Parallel_gc of int | Incremental_gc

val recovery_mode_to_string : recovery_mode -> string

val recovery_mode_of_string : string -> (recovery_mode, string) result
(** [eager], [parallel] (2 jobs), [parallel:N] or [incremental] (alias
    [lazy]), in any case; round-trips with {!recovery_mode_to_string}. *)

type config = {
  platform : Nvm.Config.t;
  variant : variant;
  workload : workload;
  threads : int;
      (** simulated worker threads; also the thread count the map must
          support (Atlas per-thread logs, skip-list tower RNGs) *)
  iterations : int;  (** per thread *)
  seed : int;
  crash_at_step : int option;
  populate_objects : int;
      (** extra map entries pre-loaded via {!Populate} before the
          workload runs (0 = none) — ballast for the recovery-at-scale
          experiments.  The workload preload overwrites its own keys
          afterwards, so the invariants hold while the ballast stays
          inside the workload's narrow-value key range; the region is
          grown to fit ({!Populate.sized_spec}). *)
  recovery_mode : recovery_mode;
      (** how a crashed run recovers; non-eager modes use the streamed
          analytic cost model.  The driver always drives an incremental
          collection to completion before dumping, so results are final
          whatever the mode. *)
  hardware : Tsp_core.Hardware.t;
  failure : Tsp_core.Failure_class.t;
  fault_model : Nvm.Fault_model.t option;
      (** [None]: the crash follows the TSP verdict (rescue or discard),
          exactly the paper's binary semantics.  [Some fm]: the crash is
          executed under the adversarial model [fm] instead, with its
          randomness drawn from a seed-derived stream so the run stays
          reproducible. *)
  journal : bool;  (** record store history for the recovery observer *)
  n_buckets : int;
  log_mib : int;  (** undo-log region size *)
  atlas_costs : Atlas.Runtime.costs;
  cost_jitter : int;  (** per-step cost jitter, for interleaving diversity *)
  iter_cycles : int;  (** charged per workload iteration (loop overhead) *)
  hash_op_cycles : int;  (** per-operation charge of the hash map *)
  skip_op_cycles : int;  (** per-operation charge of the skip list *)
  instrument :
    (Sched.Scheduler.t -> Tsp_maps.Map_intf.ops -> Tsp_maps.Map_intf.ops)
    option;
      (** interpose on the map's operation interface after construction —
          the hook point for the durable-linearizability history recorder
          ({!Check.History.wrap}) and for mutation harnesses.  The wrapped
          ops are invoked only from inside simulated threads; population
          ([set_plain]) and recovery-time dumps bypass it.  [None] (the
          default) leaves the run bit-identical to an uninstrumented
          build. *)
  tracer : Obs.Tracer.t option;
      (** attach an {!Obs.Tracer} to the run: device ops, undo-log
          appends, OCS boundaries, context switches, the crash and each
          recovery phase emit packed events with virtual-clock
          timestamps and dirty-line exposure samples.  Tracing reads
          simulation state but never mutates it — no RNG draws, no
          cycles, no allocation — so a traced run's simulated cycles
          are byte-identical to an untraced one's.  The tracer must be
          private to one machine: it registers per-ring context
          closures that [Machine.create] points at that machine's
          scheduler and device (see {!Machine}). *)
}
