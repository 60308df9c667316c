(* String-body escaping now lives in the shared JSON layer; the alias
   keeps this module's exporter self-contained for callers. *)
let escape = Json.escape

let default_thread_name tid =
  if tid < 0 then "device" else Printf.sprintf "thread-%d" tid

(* Chrome tids must be distinct non-negative ints: the device track is
   0 and simulated thread [t] is [t + 1]. *)
let chrome_tid tid = tid + 1

(* One tracer's events, emitted under process id [pid] via [event]: the
   body shared by the single-tracer and multi-tracer exports.  Span and
   counter state is per call, so distinct tracers never interfere. *)
let emit_track ?(thread_name = default_thread_name) ~pid ~event tr =
  (* Track-name metadata for every tid that appears in the ring. *)
  let seen = Hashtbl.create 16 in
  Tracer.iter tr (fun (e : Tracer.event) ->
      if not (Hashtbl.mem seen e.tid) then begin
        Hashtbl.add seen e.tid ();
        event
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
             pid (chrome_tid e.tid)
             (escape (thread_name e.tid)))
      end);
  (* Span state per chrome tid: open-depth guards against "E" events
     whose "B" was lost to ring wrap-around. *)
  let depth = Hashtbl.create 16 in
  let open_depth ct = try Hashtbl.find depth ct with Not_found -> 0 in
  let begin_span ct ts name =
    Hashtbl.replace depth ct (open_depth ct + 1);
    event
      (Printf.sprintf
         "{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"name\":\"%s\"}" pid
         ct ts name)
  in
  let end_span ct ts =
    let d = open_depth ct in
    if d > 0 then begin
      Hashtbl.replace depth ct (d - 1);
      event
        (Printf.sprintf "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%d}" pid ct
           ts)
    end
  in
  let last_ts = Hashtbl.create 16 in
  let last_dirty = ref min_int in
  Tracer.iter tr (fun (e : Tracer.event) ->
      let ct = chrome_tid e.tid in
      Hashtbl.replace last_ts ct e.ts;
      let instant name =
        event
          (Printf.sprintf
             "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"s\":\"t\",\"name\":\"%s\",\"args\":{\"a\":%d,\"b\":%d}}"
             pid ct e.ts name e.a e.b)
      in
      let code = e.code in
      if code = Event.ocs_begin then
        begin_span ct e.ts (Printf.sprintf "ocs-%d" e.a)
      else if code = Event.ocs_commit then end_span ct e.ts
      else if code = Event.phase_begin then
        begin_span ct e.ts (escape (Event.phase_name e.a))
      else if code = Event.phase_end then end_span ct e.ts
      else instant (escape (Event.name code));
      if e.dirty <> !last_dirty then begin
        last_dirty := e.dirty;
        event
          (Printf.sprintf
             "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%d,\"name\":\"dirty \
              lines\",\"args\":{\"dirty\":%d}}"
             pid e.ts e.dirty)
      end);
  (* Close spans still open at the end of the ring. *)
  Hashtbl.iter
    (fun ct d ->
      let ts = try Hashtbl.find last_ts ct with Not_found -> 0 in
      for _ = 1 to d do
        event
          (Printf.sprintf "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%d}" pid
             ct ts)
      done)
    depth

let with_events buf f =
  let first = ref true in
  let event s =
    if !first then begin
      first := false;
      Buffer.add_string buf "\n  "
    end
    else Buffer.add_string buf ",\n  ";
    Buffer.add_string buf s
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  f event;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n"

let to_buffer ?thread_name buf tr =
  with_events buf (fun event -> emit_track ?thread_name ~pid:1 ~event tr)

let to_string ?thread_name tr =
  let buf = Buffer.create 65536 in
  to_buffer ?thread_name buf tr;
  Buffer.contents buf

let write_file ?thread_name file tr =
  let oc = open_out_bin file in
  Buffer.output_buffer oc
    (let buf = Buffer.create 65536 in
     to_buffer ?thread_name buf tr;
     buf);
  close_out oc

(* Multi-tracer export: each (label, tracer) pair becomes its own
   Perfetto process, so a sharded-service run renders as one named
   process group per shard with that shard's thread/device tracks
   inside it. *)
let to_buffer_multi ?thread_name buf tracks =
  with_events buf (fun event ->
      List.iteri
        (fun i (label, tr) ->
          let pid = i + 1 in
          event
            (Printf.sprintf
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
               pid (escape label));
          emit_track ?thread_name ~pid ~event tr)
        tracks)

let write_file_multi ?thread_name file tracks =
  let oc = open_out_bin file in
  Buffer.output_buffer oc
    (let buf = Buffer.create 65536 in
     to_buffer_multi ?thread_name buf tracks;
     buf);
  close_out oc
