(** The one JSON writer (and minimal reader) shared by the bench
    snapshots and the campaign manifest/results artifacts.  Chrome
    traces are printed event by event with [Printf] and share only
    {!escape}.

    The writer is a thin layer over a {!Buffer.t}: besides the buffer it
    keeps three scalar fields, and the between-element comma state lives
    in a single int bitmask indexed by nesting depth — emitting a
    well-formed document costs no allocation beyond the buffer itself.
    Nesting is limited to 60 levels (one bit per depth).

    Emission order is the document order; the caller is responsible for
    alternating {!key}/value inside objects.  All output is
    deterministic: no wall-clock, no hash order, no locale. *)

type t

val create : ?size:int -> unit -> t
(** Fresh writer over a buffer of [size] (default 4096) bytes. *)

val contents : t -> string
val to_channel : out_channel -> t -> unit

(** {1 Structure} *)

val obj_open : t -> unit
val obj_close : t -> unit
val arr_open : t -> unit
val arr_close : t -> unit

val key : t -> string -> unit
(** Object member name; must be followed by exactly one value. *)

val line_break : t -> unit
(** Start the next element (member or array item) on a new line.  Call
    it only before an element, never before a close: it writes the
    element's separator.  For documents laid out one record per line so
    that line-based diffs stay readable. *)

(** {1 Values} *)

val str : t -> string -> unit
val int : t -> int -> unit

val float : ?dp:int -> t -> float -> unit
(** Fixed-point with [dp] (default 4) decimals; non-finite values emit
    [null] (JSON has no NaN literal, and the strict snapshot checker
    rejects bare [nan] tokens). *)

val bool : t -> bool -> unit
val null : t -> unit

val raw : t -> string -> unit
(** Append [s] verbatim as one value — for pre-rendered tokens.  The
    caller guarantees it is valid JSON. *)

(** {1 Helpers} *)

val escape : string -> string
(** JSON string-body escaping (['"'], backslash, control characters);
    also used by {!Chrome}'s event printer. *)

(** {1 Reader}

    A small parser for reading our own artifacts back (the [--replay]
    path) and the well-formedness gate behind [check_json].  It enforces
    the RFC 8259 grammar: no leading zeros, digits on both sides of a
    decimal point, no raw control characters inside strings, four hex
    digits per [\u] escape.  Numbers are floats; object member order is
    preserved. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
val parse_file : string -> (value, string) result

val member : string -> value -> value option
(** First member of that name of an [Obj]; [None] otherwise. *)
