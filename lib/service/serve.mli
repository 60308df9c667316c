(** The sharded persistent KV service: N independent {!Workload.Machine}s
    — one NVM device, scheduler, Atlas runtime and map each — behind the
    deterministic {!Arrival.route} router, driven by one open-loop
    arrival stream.

    The headline experiment crashes one shard mid-traffic (under any
    {!Nvm.Fault_model}), runs the full TSP rescue + recovery pipeline on
    it while the other shards keep serving, and accounts for what the
    outage cost: an availability timeline, per-shard latency percentiles
    before / during / after the outage, and a ledger of what the
    degraded-mode policy did with the requests that hit the hole.

    Everything is deterministic: shards are independent simulation
    cells fanned out with {!Workload.Parallel.map}, so the report is
    byte-identical across [--jobs], across repeated runs, and — for the
    untouched shards — across "neighbour crashed" and "nobody crashed"
    runs (the crash parameters never even reach their cells). *)

type config = {
  platform : Nvm.Config.t;
  variant : Workload.Machine.variant;
  shards : int;
  seed : int;
  keys : int;  (** global keyspace size; ranks index {!Workload.Key_space.h_key} *)
  requests : int;
  rate_per_mcycle : float;  (** aggregate arrival rate, requests per Mcycle *)
  theta : float;  (** Zipf skew; [0.] = uniform *)
  preset : Workload.Ycsb.preset;  (** read/update/RMW mix *)
  req_cycles : int;  (** fixed dispatch cost charged per request *)
  crash_shard : int option;
  crash_at_step : int option;
      (** [None] with [crash_shard] set: crash at half the shard's
          crash-free step count (derived from a baseline pre-run) *)
  fault_model : Nvm.Fault_model.t option;  (** adversarial crash semantics *)
  recovery : Workload.Machine.recovery_mode;
      (** how the victim recovers: [Eager] (the legacy costed pipeline),
          [Parallel_gc jobs] (streamed, byte-identical for any job
          count), or [Incremental_gc] — reattach after rescue + log
          scan, serve while a background fiber finishes the collection,
          with on-demand recovery surcharges on first-touched keys *)
  degraded : Degraded.t;
  log_mib : int;
  n_buckets : int option;  (** per-shard bucket count; [None] = sized to fit *)
  trace : bool;  (** give every shard a private {!Obs.Tracer} *)
  windows : int;  (** availability-timeline resolution *)
}

val default_config : config
(** 8 shards over a million-key keyspace, YCSB-B at 400 req/Mcycle,
    [Mutex_map Log_only] (Atlas in TSP mode), queueing degraded mode. *)

val smoke_config : config
(** A seconds-scale shrink (4 shards, 16 Ki keys, 6000 requests) with a
    crash on shard 1, for CI. *)

type fate = Pending | Served | Shed | Timed_out

type recovery_report = {
  t_down : int;  (** simulated cycle the shard crashed *)
  t_up : int;  (** cycle it was serving again: [t_down + recovery_cycles] *)
  recovery_cycles : int;
  rescued_lines : int;
  fault : Nvm.Fault_model.t;
      (** the model the crash ran: the configured fault model, or the
          one the shard's hardware and failure class resolve to
          ({!Tsp_core.Policy.crash_model}) *)
  background_gc_cycles : int;
      (** incremental mode: the collection bill paid while already
          serving (overlapped, not part of the outage); 0 otherwise *)
  on_demand_recovered : int;
      (** keys whose first phase-2 touch paid an on-demand recovery
          surcharge (incremental mode) *)
  recovery_verdict : Atlas.Recovery.verdict;
  dl : Check.Dl.verdict option;
      (** strict durable-linearizability verdict over the recorded
          pre-crash history; [None] when the fault model is outside the
          strict checker's soundness envelope (see [dl_note]) *)
  dl_note : string;
  recovery_errors : string list;
}

type shard_report = {
  shard : int;
  requests : int;  (** routed to this shard *)
  populated : int;  (** keys this shard owns *)
  served : int;
  shed : int;
  timed_out : int;
  retry_attempts : int;  (** total extra client attempts (retry mode) *)
  phase2_served : int;  (** outage-hit requests served after recovery *)
  sim_cycles : int;  (** final device clock — the identity witness *)
  elapsed_cycles : int;
  steps : int;
  outcome : string;
      (** ["ok"], ["crashed+recovered"], ["crashed+lost"] or
          ["deadlocked"] *)
  recovery : recovery_report option;
  tracer : Obs.Tracer.t option;
}

type window = {
  w_start : int;
  w_end : int;
  total : int;
  ok : int;  (** eventually served *)
  failed : int;  (** shed or timed out *)
}

type latency_row = {
  l_shard : int;
  l_phase : string;  (** ["steady"], or ["before"]/["during"]/["after"] *)
  samples : int;
  p50 : int;
  p99 : int;
  p999 : int;
  lat_hist : Obs.Hist.t;
      (** the full log-bucketed distribution behind the percentiles —
          the service path retains no raw samples, only this fixed-size
          histogram per (shard, phase) cell *)
}

type report = {
  config : config;
  horizon : int;  (** one past the last arrival cycle *)
  shards : shard_report array;
  fates : fate array;  (** per request, in arrival order *)
  latencies : int array;  (** per request; [-1] unless served *)
  windows : window array;
  latency : latency_row list;
}

val run : ?jobs:int -> config -> report
(** Generate the stream, fan the shards out as parallel cells, crash and
    recover the victim (if any), aggregate.  [jobs] affects wall-clock
    time only.
    @raise Invalid_argument on a malformed config (shard count, crash
    shard out of range, rate, windows). *)

val failed : report -> bool
(** The exit rule of [tsp serve]: some shard deadlocked, was lost
    although the model its crash ran promises no loss
    ({!Nvm.Fault_model.expects_loss}), or recovered a state its strict
    durable-linearizability check flagged. *)

val render : report -> string
(** The full deterministic report: configuration, per-shard ledger,
    availability timeline, latency table, recovery detail.  Contains no
    wall-clock times, so it is byte-comparable across runs. *)

val write_trace : report -> path:string -> bool
(** Export the per-shard Perfetto tracks ({!Obs.Chrome.write_file_multi},
    one process group per shard).  [false] when the run was not traced. *)

val to_json : Obs.Json.t -> report -> unit
(** Emit the report as the results-artifact body: totals, per-shard
    ledger (with recovery detail and DL verdicts), availability
    windows and the per-(shard, phase) latency histograms.
    Byte-identical across [--jobs]. *)
