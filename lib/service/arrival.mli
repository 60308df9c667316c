(** Open-loop request arrivals and the deterministic request router.

    The service is driven open-loop, as real serving systems are
    measured: requests arrive on a Poisson process at a configured rate
    regardless of whether the servers keep up, so queueing delay is part
    of every latency sample — unlike the closed-loop workloads in
    {!Workload.Runner}, where a thread's next operation waits for its
    previous one.  Keys are drawn Zipfian ({!Workload.Ycsb.Zipf}, with
    [theta = 0.] the uniform degenerate case) and the operation mix
    comes from a YCSB preset.

    The whole stream is a pure function of [(seed, rate, theta, keys,
    preset, requests)]: one splitmix64 generator, three draws per
    request in a fixed order.  Byte-reproducible across hosts, job
    counts and repeated runs. *)

type stream = {
  times : int array;
      (** absolute arrival cycle of request [i]; nondecreasing *)
  ranks : int array;
      (** Zipf rank of request [i] — an index into {!Workload.Key_space.h_key} *)
  ops : int array;  (** operation code of request [i]: {!op_read} etc. *)
}

val op_read : int
val op_update : int

val generate :
  seed:int ->
  rate_per_mcycle:float ->
  theta:float ->
  keys:int ->
  preset:Workload.Ycsb.preset ->
  requests:int ->
  stream
(** @raise Invalid_argument when [rate_per_mcycle <= 0.], [keys <= 0],
    [requests < 0] or [theta] is outside [\[0, 1)]. *)

val horizon : stream -> int
(** One past the last arrival cycle (1 for an empty stream). *)

val route : shards:int -> int -> int
(** [route ~shards key] is the shard owning [key]: a fixed integer
    mixer folded modulo [shards], so placement is deterministic,
    stateless and scatters the Zipf-head hot keys across shards.
    @raise Invalid_argument when [shards <= 0]. *)
