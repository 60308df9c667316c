(** A delay-free map over recoverable CAS (after Attiya, Ben-Baruch &
    Hendler's "Delay-Free Concurrency on Faulty Persistent Memory",
    PAPERS.md): a fixed-capacity open-addressed hash table whose
    read-modify-write operations announce the intended CAS — expected
    value, desired value, and a per-slot sequence stamp — and persist
    that announce record {e before} executing the CAS, then acknowledge
    it afterwards.

    A crash anywhere in the window leaves durable evidence from which
    {!repair} finishes the operation {e exactly once}:

    - announce unsealed → the op's intent never persisted, abort it;
    - value = announced desired → the CAS landed, just acknowledge;
    - value = announced expected → re-execute the CAS once;
    - otherwise → the CAS would have failed, acknowledge the failure.

    No thread helps another complete a data CAS ("no blocking helping"):
    a live owner is waited out, a crashed owner is finished by recovery.
    Psync complexity: 2 flushes + 2 fences per read-modify-write
    (announce, acknowledge), 1 + 1 per blind store, 0 for reads. *)

type t

val capacity_for : n_buckets:int -> int
(** Power-of-two slot count giving the same keyspace headroom the
    chained map gets from [n_buckets] buckets (8 slots per bucket). *)

val create : Pheap.Heap.t -> ?op_cycles:int -> capacity:int -> unit -> t
(** Allocate and initialise the table (capacity must be a power of two
    >= 8) and point the heap root at it. *)

val attach : Pheap.Heap.t -> ?op_cycles:int -> Pheap.Heap.addr -> t
(** Re-attach after recovery.  Run {!repair} first.
    @raise Invalid_argument if the root is not a delay-free table. *)

val root : t -> Pheap.Heap.addr
val ops : t -> Map_intf.ops

(** {1 Recovery} *)

type repair = {
  scanned : int;
  reexecuted : int;  (** announced CAS re-executed exactly once *)
  acked : int;  (** CAS had landed; only the acknowledgement was missing *)
  aborted : int;  (** announce incomplete or CAS had failed: op abandoned *)
}

val repair : Pheap.Heap.t -> Pheap.Heap.addr -> repair
(** Single-threaded scan completing every in-flight recoverable CAS
    per the decision table above.  Idempotent: a crash during repair
    re-runs it to the same state.
    @raise Invalid_argument if the root is not a delay-free table. *)

(** {1 Plain access — setup and verification} *)

val set_plain : t -> key:int -> value:int64 -> unit

val fold_plain :
  Pheap.Heap.t -> root:Pheap.Heap.addr -> (int -> int64 -> 'a -> 'a) -> 'a -> 'a

val check_plain : Pheap.Heap.t -> root:Pheap.Heap.addr -> (unit, string) result
(** Structural sanity: no duplicate keys among occupied slots. *)
