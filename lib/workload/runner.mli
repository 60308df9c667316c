(** End-to-end experiment driver: build a simulated machine, run the
    Section 5.1 workload on it, optionally crash it, recover, verify.

    A run proceeds through the phases a real experiment would:

    + format the NVM region (heap in front, undo-log region at the end),
      build the map, pre-populate it, and persist the initial state;
    + spawn the worker threads under the deterministic scheduler with the
      device's step hook wired to it;
    + run to completion — or to the injected crash point, at which every
      thread is abandoned mid-operation;
    + on a crash: let the TSP policy decide the device's crash behaviour
      for the configured hardware and failure class (rescue vs. discard),
      then recover: re-attach the heap, run Atlas rollback (mutex
      variants), run the recovery GC, and audit the heap;
    + dump the map and check the workload's invariants. *)

type variant = Machine.variant =
  | Mutex_map of Atlas.Mode.t  (** the separate-chaining hash table *)
  | Mutex_btree of Atlas.Mode.t
      (** the Atlas-fortified B+-tree: an extension beyond the paper's
          two structures, whose node splits are large critical sections *)
  | Nonblocking_map  (** the lock-free skip list *)
  | Nvtraverse_map
      (** the same skip list under its NVTraverse discipline: unflushed
          traversal, O(1) flushes in the critical update window *)
  | Delayfree_map
      (** the delay-free recoverable-CAS table: announced CASes a crash
          leaves re-executable exactly once *)

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
          (experiment E13; mutex variants only) *)
  | Ycsb of { preset : Ycsb.preset; records : int }
      (** YCSB core mixes (A/B/C/F) with a Zipfian request distribution
          over a pre-loaded record set; records are value-congruent to
          their keys so crashes are detectable *)
  | Transfers of { accounts : int; initial_balance : int }
      (** bank transfers: multi-store critical sections (mutex variants
          only) *)

type config = {
  platform : Nvm.Config.t;
  variant : variant;
  workload : workload;
  threads : int;
  iterations : int;  (** per thread *)
  seed : int;
  crash_at_step : int option;
  populate_objects : int;
      (** extra map entries pre-loaded via {!Populate} before the
          workload runs (0 = none) — ballast for the recovery-at-scale
          experiments.  The workload preload overwrites its own keys
          afterwards, so invariants are unaffected; the region is grown
          to fit ({!Populate.sized_spec}). *)
  recovery_mode : Machine.recovery_mode;
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
          are byte-identical to an untraced one's. *)
}

val default_config : config
(** Desktop platform, unfortified mutex map, counter workload, 8 threads,
    no crash. *)

val calibrated_config : Nvm.Config.t -> config
(** [default_config] specialised to [platform], with the per-platform
    charges (lock cost, logging cost, per-op CPU overhead) solved so the
    counter workload lands at the paper's Table 1 operating point.  The
    variant ordering and every qualitative claim hold with uncalibrated
    charges too; calibration only matches the absolute numbers. *)

val machine_spec : config -> Machine.spec
(** The {!Machine.spec} a run of [config] builds its machine from: the
    one place run configs become machine specs, so callers that build
    machines directly derive theirs from [default_config] or
    [calibrated_config] with record overrides. *)

(** {1 The crash-campaign smoke shape}

    256 preloaded counter keys in 512 buckets and a 1 MiB log, run by 4
    threads x 200 iterations on a 512-line (32 KiB) cache small enough
    that a discard loses lines: what the faults/check/trace smokes crash. *)

val smoke_workload : config -> config
(** Only the keys, buckets and log. *)

val smoke : ?sized:bool -> config -> config
(** The whole shape; [~sized:false] keeps the threads and iterations. *)

val smoke_mid_from : variant -> int
(** Start of the smokes' mid-workload crash window: 18 000 for the
    delay-free table (done near step 22k), else 40 000. *)

type crash_report = {
  verdict : Tsp_core.Policy.verdict;
  observer : Tsp_core.Recovery_observer.verdict option;
  atlas_recovery : Atlas.Recovery.report option;
  gc : Pheap.Heap_gc.stats option;
  gc_quarantine : Pheap.Heap_gc.quarantine option;
      (** what the recovery GC had to give up on (see
          {!Pheap.Heap_gc.quarantine}); present whenever [gc] is *)
  recovery_verdict : Atlas.Recovery.verdict;
      (** the whole recovery pipeline's structured verdict: [Clean] when
          every stage trusted all of the image, [Degraded] with one
          reason per discounted part, [Unrecoverable] when the heap
          could not even be attached *)
  heap_audit_ok : bool;
  recovery_errors : string list;
  recovery_cycles : int;
      (** simulated cycles spent on the whole recovery pipeline (log
          scan, rollback, GC, audit) — the procrastinator's bill *)
  rescued_lines : int;
      (** dirty cache lines the crash-time TSP rescue wrote back *)
  rescue_bill : Tsp_core.Crash_executor.execution;
      (** the executed crash-time actions with their time/energy cost *)
}

type outcome = Completed | Crashed of int | Deadlocked of string list

type result = {
  config : config;
  outcome : outcome;
  iterations_done : int;
  elapsed_cycles : int;
  miters_per_sec : float;  (** the Table 1 metric, in simulated time *)
  invariants : Invariant.result;
  crash : crash_report option;
  entries : (int * int64) list;  (** post-run/post-recovery map dump *)
  total_steps : int;
  device_stats : Nvm.Stats.t;
      (** operation counters of the simulated device (loads, flushes,
          write-backs, rescued/dropped lines, ...) *)
  latencies_cycles : int array;
      (** per-operation latency samples in simulated cycles, recorded by
          the YCSB workload only; empty for every other workload *)
}

val run : config -> result

val consistent : result -> bool
(** Invariants hold and (after a crash) the heap audit passed. *)

(** {1 Restart: crash, recover, resume, finish}

    Exercises the paper's full recovery contract: after the crash and
    recovery, fresh workers derive their restart point from the
    {e persistent} state (each thread's c2 counter names its last
    finished iteration) and run the workload to completion on the same
    device.  Because the three steps of an iteration are separate atomic
    operations, resumption is at-least-once: a thread killed between its
    data increment and its c2 update redoes one increment, so the final
    H-range total may exceed T x iterations by at most T — the report
    verifies exactly that bound. *)

type resume_report = {
  first : result;  (** the crashed phase, fully verified *)
  resumed : bool;  (** a resume phase actually ran *)
  resume_iterations : int;
  final_entries : (int * int64) list;
  final_invariants : Invariant.result;
  completion_ok : bool;
      (** every thread reached [iterations]; invariants hold; duplicated
          work within the at-least-once bound *)
  duplicated_increments : int;
}

val run_with_resume : config -> resume_report
(** @raise Invalid_argument for the transfer workload (its resumption is
    trivially conservation-preserving and thus unobservable). *)

val pp_resume_report : resume_report Fmt.t

val variant_to_string : variant -> string

val ops_per_iteration : workload -> int
(** Map operations per workload iteration (3 for counters/mixed, 1
    otherwise): the denominator of the per-op psync rates. *)

val completed_ops : result -> int
(** [iterations_done * ops_per_iteration]: what to pass to
    {!Obs.Metrics.of_tracer} so commit-free variants report per-op psync
    rates. *)

val pp_result : result Fmt.t
