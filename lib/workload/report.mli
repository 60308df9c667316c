(** Plain-text table rendering for experiment output. *)

val table :
  header:string list -> rows:string list list -> Format.formatter -> unit
(** Render an aligned ASCII table. *)

val capped_rows : more:string -> 'a Fmt.t -> 'a list Fmt.t
(** A campaign summary's failing rows: each of the first 20 after a
    break hint ([@ ]), so inside a vertical box each starts a line, then
    ["... and N more <more>"] when [N] rows were left out. *)

val ratio : float -> float -> string
(** ["0.65x"]-style ratio of measured to baseline; ["-"] if undefined. *)

val pct_change : base:float -> float -> string
(** Signed percentage change from [base] (e.g. ["-35%"]). *)

val percentiles : int array -> float list -> (float * int) list
(** [percentiles samples [0.5; 0.99]] returns the requested quantiles of
    the samples (nearest-rank); empty input gives an empty list. *)
