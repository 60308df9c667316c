(** Geometry and latency parameters of a simulated machine.

    A {!t} bundles everything the NVM device model needs to know about the
    platform it pretends to be: the size of the byte-addressable persistent
    region, the CPU cache in front of it, and the cycle cost of every
    primitive memory operation.  Two presets, {!desktop} and {!server},
    are calibrated against the machines of Table 1 of the paper (an HP
    ENVY Phoenix 800 desktop and a DL580 Gen8 server). *)

type t = {
  name : string;  (** human-readable platform name *)
  ghz : float;  (** clock frequency used to convert cycles to seconds *)
  region_size : int;  (** bytes of simulated NVM; multiple of [line_size] *)
  line_size : int;  (** cache-line size in bytes (power of two) *)
  cache_lines : int;  (** total lines in the simulated cache *)
  cache_ways : int;  (** associativity; [cache_lines mod cache_ways = 0] *)
  load_hit : int;  (** cycles for a load that hits the cache *)
  load_miss : int;  (** cycles for a load that misses *)
  store_cost : int;  (** cycles for a store (write-allocate hit path) *)
  store_miss_extra : int;  (** additional cycles when a store misses *)
  flush_cost : int;  (** cycles for flushing one line to NVM (clwb-like) *)
  fence_cost : int;  (** cycles for a persist fence (sfence-like) *)
  cas_extra : int;  (** cycles added on top of a store for a CAS *)
}

val desktop : t
(** ENVY Phoenix 800 profile: i7-4770 @ 3.4 GHz, 8 hardware threads. *)

val server : t
(** DL580 Gen8 profile: E7-4890v2 @ 2.8 GHz, one socket (30 hw threads);
    slightly higher memory latencies than {!desktop}, as is typical of
    large multi-socket machines. *)

val test_small : t
(** A tiny region and cache for unit tests: evictions happen quickly, so
    write-back and crash-discard behaviour is easy to exercise. *)

val of_string : string -> (t, string) result
(** [desktop] (alias [envy]) or [server] (alias [dl580]). *)

val to_cli_string : t -> string
(** The spelling of the preset [t] derives from (by name), else [t.name]. *)

val with_region_size : t -> int -> t
(** [with_region_size t bytes] returns [t] resized; [bytes] is rounded up
    to a whole number of cache lines. *)

val validate : t -> (unit, string) result
(** Check internal consistency (powers of two, divisibility, positivity).
    [line_size] and the set count [cache_lines / cache_ways] must be
    powers of two: the cache model indexes lines and sets with
    shift/mask instead of division on the per-access hot path.
    [line_size] must also not exceed {!Memory.page_size}, so a line
    never straddles two pages of the memory images. *)

val n_sets : t -> int
(** Number of cache sets, [cache_lines / cache_ways]. *)
