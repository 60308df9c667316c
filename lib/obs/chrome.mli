(** Chrome trace-event JSON export.

    Serialises the surviving ring contents into the Trace Event Format
    understood by Perfetto and [chrome://tracing]: one named track per
    simulated thread plus a "device" track (tid 0) for out-of-thread
    events — crashes, device recovery, and the recovery phases, which
    render as nested spans.  OCS begin/commit render as spans on their
    thread's track, op events as instants, and the dirty-line sample
    carried by every event header feeds a "dirty lines" counter track.

    Timestamps are the simulator's virtual clocks verbatim (reported as
    microseconds to the viewer).  Worker tracks run on their thread's
    vclock and the device track on the out-of-scheduler device clock;
    tracks are therefore internally ordered but mutually unsynchronised,
    exactly like the simulation itself.

    Ring wrap-around can orphan the "end" half of a span whose "begin"
    was overwritten; the exporter keeps a per-track open-span depth and
    drops unmatched ends, then closes any still-open spans at the last
    timestamp, so the output is always well-formed. *)

val to_string : ?thread_name:(int -> string) -> Tracer.t -> string
(** [thread_name] maps a simulated thread id (or [-1] for the device
    track) to a display name; names are escaped by the exporter. *)

val write_file : ?thread_name:(int -> string) -> string -> Tracer.t -> unit

(** {1 Multi-tracer export}

    A sharded run carries one tracer per shard (the context closures a
    tracer registers are per-ring, so shards must not share one).  The
    [_multi] exporters merge the rings into a single trace in which each
    [(label, tracer)] pair is its own process — Perfetto renders one
    named group per shard, with that shard's thread and device tracks
    (and dirty-line counter) inside it.  [thread_name] applies within
    every shard. *)

val write_file_multi :
  ?thread_name:(int -> string) -> string -> (string * Tracer.t) list -> unit
