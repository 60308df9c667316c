(** Allocation-free log-bucketed (HDR-style) histogram over
    non-negative ints, for latency and exposure distributions.

    Values below 16 get exact unit buckets; each power-of-two octave
    above is split into 16 linear sub-buckets, bounding the relative
    bucket error at 6.25% (within the 1.07x budget) — and the reported
    quantile is the bucket midpoint clamped into the recorded
    [min, max], halving that again.  Exact count and sum are kept
    alongside, so means are not subject to bucketing at all.

    {!add} performs no heap allocation (guarded by a [Gc.minor_words]
    regression), so a histogram can sit on the tracer emit path and the
    service latency sink without breaking the zero-allocation or
    sim-cycle-identity contracts. *)

type t

val create : unit -> t
(** 944 buckets cover every non-negative OCaml int. *)

val add : t -> int -> unit
(** Record one value; negatives are clamped to 0.  Allocation-free. *)

val reset : t -> unit

(** {1 Exact statistics} *)

val count : t -> int
val sum : t -> int
val mean : t -> float

val is_empty : t -> bool

(** {1 Bucketed statistics} *)

val quantile : t -> float -> int
(** Nearest-rank quantile (the {!Workload.Report.percentiles}
    convention: rank [ceil (q * n)], 1-based), reported as the owning
    bucket's midpoint clamped into [min, max]; 0 when empty.  Relative
    error <= 6.25%. *)

val sparkline : ?width:int -> t -> string
(** Log-bucket shape compressed to at most [width] (default 32) cells,
    eight UTF-8 block levels scaled to the peak bucket; ['.'] for empty
    cells, [""] when the histogram is empty. *)

val pp : t Fmt.t
(** One line: n, mean, min, p50/p99/p999, max and the sparkline. *)

val to_json : Json.t -> t -> unit
(** Emit [{n, sum, min, max, mean, p50, p99, p999, sparkline}]. *)
