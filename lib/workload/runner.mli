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

include module type of struct
  include Run_config
end
(** The run configuration, the same type as [Machine.config]. *)

val default_config : config
(** Desktop platform, unfortified mutex map, counter workload, 8 threads,
    no crash. *)

val calibrated_config : Nvm.Config.t -> config
(** [default_config] specialised to [platform], with the per-platform
    charges (lock cost, logging cost, per-op CPU overhead) solved so the
    counter workload lands at the paper's Table 1 operating point.  The
    variant ordering and every qualitative claim hold with uncalibrated
    charges too; calibration only matches the absolute numbers. *)

val validate : config -> (unit, string) result
(** The one validity rule: the wide-value and transfer workloads call the
    hash map's own multi-store operations, so they need a [Mutex_map]
    variant; every other workload runs on every variant.  [Error] says
    why, naming the variants that would do.  {!run} checks it before it
    builds a machine. *)

(** {1 What a run stores before its threads start} *)

val iter_preload : config -> (key:int -> value:int64 -> unit) -> unit
(** The workload's preload in store order: each thread's c1/c2 counters
    at 0 (counters with preload, mixed, counters without), the H range at
    0 (counters with preload, mixed, wide), each YCSB record at its own
    key, each transfer account at [initial_balance].  {!run} stores
    through it with the map's [set_plain], after the ballast. *)

val initial_entries : config -> (int * int64) list
(** The map a run holds when its threads start, sorted by key: the
    {!Populate.keys} ballast (value = key), then {!iter_preload}, the
    last value written to each key kept.  Population is single-threaded,
    unrecorded and a pure function of the config, so this is the
    durable-linearizability baseline without a dump. *)

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
(** @raise Invalid_argument when {!validate} rejects the config. *)

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

val ops_per_iteration : workload -> int
(** Map operations per workload iteration (3 for counters/mixed, 1
    otherwise): the denominator of the per-op psync rates. *)

val completed_ops : result -> int
(** [iterations_done * ops_per_iteration]: what to pass to
    {!Obs.Metrics.of_tracer} so commit-free variants report per-op psync
    rates. *)

val pp_result : result Fmt.t
