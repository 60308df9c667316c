(** Reproduction of Table 1: throughput of the four map variants on the
    two hardware platforms, with the paper's published numbers alongside
    for shape comparison (experiments E1 and E2 of DESIGN.md). *)

type cell = {
  variant : Runner.variant;
  paper_miters : float;  (** the value printed in the paper's Table 1 *)
  measured_miters : float;  (** mean over the seeds *)
  spread_miters : float;  (** max − min across seeds (0 for one seed) *)
  result : Runner.result;  (** first seed's full run *)
}

type row = { platform : Nvm.Config.t; cells : cell list }

val paper_desktop : float list
(** no-Atlas, log-only, log+flush, non-blocking: 3.66; 2.36; 1.58; 2.54 *)

val variants : Runner.variant list
(** The four columns, in Table 1 order. *)

val run_row :
  ?threads:int ->
  ?iterations:int ->
  ?seed:int ->
  ?repeats:int ->
  ?jobs:int ->
  Nvm.Config.t ->
  float list ->
  row

val run :
  ?threads:int ->
  ?iterations:int ->
  ?seed:int ->
  ?repeats:int ->
  ?jobs:int ->
  unit ->
  row list
(** Both platforms; defaults: 8 threads, 4000 iterations per thread, one
    seed.  [repeats > 1] reruns each cell with distinct seeds and reports
    the mean with the half-spread.  [jobs] fans the independent cells
    across that many domains (default: the host core count); every cell
    is deterministic, so the table is identical for any [jobs]. *)

val shape_ok : row -> bool
(** The qualitative claims of Section 5.2 hold: [no-Atlas > log-only >
    log+flush], and the TSP mode beats the non-TSP mode by a wide margin
    (>= 25%). *)

val render : row list -> Format.formatter -> unit
(** Print measured vs. paper numbers, normalised overheads, and the
    TSP-vs-non-TSP speedup — the quantities Section 5.2 discusses —
    under a header stating the first row's thread count.  [rows] must
    not be empty. *)

val render_breakdown : row -> Format.formatter -> unit
(** Per-variant cycle decomposition (loads / stores / CAS / flushes /
    fences / compute): shows {e where} each fortification level spends
    its time — logging shows up as extra loads+stores+compute, the
    non-TSP mode additionally as flush and fence cycles. *)
