(** The TSP decision procedure (the heart of Section 3).

    For a platform and a tolerated failure class, decide whether Timely
    Sufficient Persistence is available — i.e. whether a crash-time plan
    can move all critical data to safety, making failure-free preventive
    flushing unnecessary — and if not, what runtime obligation remains.

    "Safe" is always relative to the failure class (Section 3): DRAM is
    safe against process crashes, memory reachable by a panic handler is
    safe against kernel panics, and only media with standby energy or
    inherent non-volatility are safe against power outages. *)

type runtime_obligation =
  | No_runtime_action  (** the TSP ideal: procrastinate everything *)
  | Flush_log_entries
      (** synchronously flush undo-log entries (and commit data) to the
          durable medium before dependent stores — Atlas without TSP *)
  | Write_through_to_storage
      (** no byte-addressable durable medium survives this failure:
          updates must reach block storage synchronously, as in a
          conventional WAL database *)

type crash_action =
  | Rely_on_kernel_persistence
      (** nothing to do: POSIX MAP_SHARED semantics keep the page cache
          (and, via coherence, dirty CPU cache lines) visible after the
          process dies — Appendix A of the paper *)
  | Panic_flush_caches  (** the dying kernel flushes CPU caches *)
  | Panic_dump_memory of { seconds : float }
      (** the dying kernel writes memory to stable storage *)
  | Failover_to_ups
  | Nvdimm_save  (** on-DIMM supercaps persist DRAM to flash *)
  | Wsp_rescue of Wsp.outcome  (** the two-stage WSP evacuation *)

type verdict =
  | Tsp of { actions : crash_action list; note : string }
      (** TSP available: zero runtime overhead, [actions] run at crash
          time *)
  | Not_tsp of { runtime : runtime_obligation; reason : string }
      (** TSP unavailable: the runtime obligation applies during
          failure-free operation *)

val decide : Hardware.t -> Failure_class.t -> verdict

val decide_requirement :
  Hardware.t -> Requirement.t -> (Failure_class.t * verdict) list
(** One verdict per tolerated failure class. *)

val weakest_runtime_obligation :
  Hardware.t -> Requirement.t -> runtime_obligation
(** The obligation that satisfies {e all} tolerated failures at once:
    [No_runtime_action] iff every class gets a TSP verdict, otherwise the
    strongest of the per-class obligations. *)

val crash_model :
  hardware:Hardware.t ->
  failure:Failure_class.t ->
  Nvm.Fault_model.t option ->
  Nvm.Fault_model.t
(** The fault model a crash of [failure] on [hardware] runs: an explicit
    fault model overrides the verdict; without one, a TSP verdict
    rescues every dirty line ([Full_rescue]) and a non-TSP verdict drops
    them ([Full_discard]).  Every crash executes this model
    ({!Crash_executor.execute}), and every judge of a crash asks it. *)

val is_tsp : verdict -> bool
val pp_verdict : verdict Fmt.t

val decision_matrix : unit -> (string * (Failure_class.t * verdict) list) list
(** The full platform x failure-class matrix over {!Hardware.all} — the
    executable form of Section 3's prose survey (experiment E5). *)
