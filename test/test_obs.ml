(* Tests for the observability layer (lib/obs): header packing, ring
   wrap-around vs the online accumulators, the exposure envelope's
   time-above-budget integral, Chrome JSON escaping and well-formedness,
   the zero-allocation contracts, and the central determinism invariant
   — a traced workload run is sim-cycle identical to an untraced one. *)

open Helpers
module Event = Obs.Event
module Tracer = Obs.Tracer
module Chrome = Obs.Chrome
module Metrics = Obs.Metrics
module Runner = Workload.Runner

(* Drive the context closures from a script: each emitted event takes
   the next (ts, tid, dirty) triple. *)
let scripted tr triples =
  let q = ref triples in
  let peek f = match !q with [] -> f (0, -1, 0) | x :: _ -> f x in
  Tracer.set_clock tr (fun () -> peek (fun (ts, _, _) -> ts));
  Tracer.set_tid tr (fun () -> peek (fun (_, tid, _) -> tid));
  Tracer.set_dirty tr (fun () ->
      peek (fun (_, _, d) ->
          (* dirty is sampled last in [emit]; advance the script here *)
          (match !q with [] -> () | _ :: rest -> q := rest);
          d))

(* --- Event: header packing roundtrip --- *)

let test_pack_roundtrip () =
  List.iter
    (fun (code, tid, dirty) ->
      let w = Event.pack ~code ~tid ~dirty in
      Alcotest.(check int) "code" code (Event.code_of w);
      Alcotest.(check int) "tid" tid (Event.tid_of w);
      Alcotest.(check int) "dirty" dirty (Event.dirty_of w))
    [
      (Event.load, -1, 0);
      (Event.store, 0, 1);
      (Event.phase_end, 42, 123_456);
      (Event.ocs_commit, 4094, 1 lsl 30);
    ];
  (* clamping: negative dirty floors at 0, codes/tids mask cleanly *)
  let w = Event.pack ~code:Event.fence ~tid:7 ~dirty:(-5) in
  Alcotest.(check int) "negative dirty clamps" 0 (Event.dirty_of w)

(* --- Tracer: wrap-around loses raw events but no accounting --- *)

let feed tr n =
  (* a deterministic mixed stream: codes cycle, clocks advance, dirty
     ramps up and down *)
  let triples =
    List.init n (fun i -> (i * 10, i mod 3, (i * 7 mod 50) + 1))
  in
  scripted tr triples;
  List.iteri
    (fun i _ ->
      let code = i mod Event.n_codes in
      Tracer.emit tr ~code ~a:i ~b:(i land 15))
    triples

let test_ring_wrap () =
  let small = Tracer.create ~ring_cap:8 ~budget_lines:25 () in
  let large = Tracer.create ~ring_cap:4096 ~budget_lines:25 () in
  let n = 100 in
  feed small n;
  feed large n;
  Alcotest.(check int) "emitted small" n (Tracer.emitted small);
  Alcotest.(check int) "emitted large" n (Tracer.emitted large);
  Alcotest.(check int) "length small" 8 (Tracer.length small);
  Alcotest.(check int) "dropped small" (n - 8) (Tracer.dropped small);
  Alcotest.(check int) "length large" n (Tracer.length large);
  Alcotest.(check int) "dropped large" 0 (Tracer.dropped large);
  (* every online summary is identical despite 92 overwritten events *)
  for code = 0 to Event.n_codes - 1 do
    Alcotest.(check int)
      (Printf.sprintf "count %s" (Event.name code))
      (Tracer.count large code) (Tracer.count small code);
    Alcotest.(check int)
      (Printf.sprintf "cycles %s" (Event.name code))
      (Tracer.cycles_of large code)
      (Tracer.cycles_of small code)
  done;
  let es = Tracer.exposure small and el = Tracer.exposure large in
  Alcotest.(check int) "samples" el.Tracer.samples es.Tracer.samples;
  Alcotest.(check int) "peak" el.Tracer.peak_dirty es.Tracer.peak_dirty;
  Alcotest.(check (float 1e-9)) "mean" el.Tracer.mean_dirty es.Tracer.mean_dirty;
  Alcotest.(check int) "duration" el.Tracer.duration es.Tracer.duration;
  Alcotest.(check int) "time above"
    el.Tracer.time_above_budget es.Tracer.time_above_budget;
  (* the small ring's oldest survivor is event n-8 of the stream *)
  let oldest = Tracer.nth small 0 in
  Alcotest.(check int) "oldest ts" ((n - 8) * 10) oldest.Tracer.ts;
  Alcotest.(check int) "oldest a" (n - 8) oldest.Tracer.a;
  Alcotest.check_raises "nth out of range" (Invalid_argument "Tracer.nth")
    (fun () -> ignore (Tracer.nth small 8 : Tracer.event))

let test_exposure_budget () =
  let tr = Tracer.create ~ring_cap:64 ~budget_lines:10 () in
  (* envelope: dirty 5 @0, 15 @10, 8 @30, 12 @40, 0 @45.  The level is
     above budget on [10,30) and [40,45), so 25 cycles of the 45. *)
  scripted tr [ (0, 0, 5); (10, 0, 15); (30, 0, 8); (40, 0, 12); (45, 0, 0) ];
  for i = 1 to 5 do
    Tracer.emit tr ~code:Event.store ~a:i ~b:0
  done;
  let e = Tracer.exposure tr in
  Alcotest.(check int) "samples" 5 e.Tracer.samples;
  Alcotest.(check int) "peak" 15 e.Tracer.peak_dirty;
  Alcotest.(check (float 1e-9)) "mean" 8.0 e.Tracer.mean_dirty;
  Alcotest.(check int) "last" 0 e.Tracer.last_dirty;
  Alcotest.(check int) "duration" 45 e.Tracer.duration;
  Alcotest.(check int) "time above budget" 25 e.Tracer.time_above_budget;
  (* an out-of-order timestamp (a worker vclock behind the envelope)
     contributes a sample but never rewinds the time integral *)
  scripted tr [ (20, 1, 999) ];
  Tracer.emit tr ~code:Event.store ~a:6 ~b:0;
  let e = Tracer.exposure tr in
  Alcotest.(check int) "peak includes stale sample" 999 e.Tracer.peak_dirty;
  Alcotest.(check int) "duration unchanged" 45 e.Tracer.duration;
  Alcotest.(check int) "time above unchanged" 25 e.Tracer.time_above_budget

(* --- Chrome export --- *)

let test_chrome_escape () =
  Alcotest.(check string) "quotes/backslash" "a\\\"b\\\\c"
    (Obs.Json.escape "a\"b\\c");
  Alcotest.(check string) "newline/tab" "x\\ny\\tz"
    (Obs.Json.escape "x\ny\tz");
  Alcotest.(check string) "control chars" "\\u0001\\u001f"
    (Obs.Json.escape "\x01\x1f");
  Alcotest.(check string) "plain passthrough" "worker-3 [ocs]"
    (Obs.Json.escape "worker-3 [ocs]")

(* A minimal structural JSON scanner: strings must contain no raw
   control characters and only legal escapes; braces and brackets must
   balance outside strings.  Not a full parser — dune runtest also runs
   the strict RFC 8259 checker over a real [tsp trace --smoke] export —
   but enough to catch escaping bugs at the unit level. *)
let check_json_shape s =
  let depth = ref 0 and i = ref 0 and n = String.length s in
  while !i < n do
    (match s.[!i] with
    | '"' ->
        incr i;
        let closed = ref false in
        while not !closed do
          if !i >= n then Alcotest.fail "unterminated string";
          (match s.[!i] with
          | '"' -> closed := true
          | '\\' ->
              incr i;
              if !i >= n then Alcotest.fail "dangling escape";
              (match s.[!i] with
              | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> ()
              | 'u' -> i := !i + 4
              | c -> Alcotest.failf "illegal escape \\%c" c)
          | c when Char.code c < 0x20 ->
              Alcotest.failf "raw control char %#x in string" (Char.code c)
          | _ -> ());
          if not !closed then incr i
        done
    | '{' | '[' -> incr depth
    | '}' | ']' -> decr depth
    | _ -> ());
    incr i
  done;
  Alcotest.(check int) "balanced braces/brackets" 0 !depth

let test_chrome_wellformed () =
  let tr = Tracer.create ~ring_cap:256 () in
  let clk = ref 0 in
  Tracer.set_clock tr (fun () -> incr clk; !clk);
  (* spans on two tracks (one the device), instants, a counter, and an
     orphaned end from a "wrapped" begin *)
  Tracer.set_tid tr (fun () -> 0);
  Tracer.emit tr ~code:Event.ocs_begin ~a:1 ~b:0;
  Tracer.emit tr ~code:Event.store ~a:64 ~b:12;
  Tracer.emit tr ~code:Event.ocs_commit ~a:1 ~b:1;
  Tracer.emit tr ~code:Event.ocs_commit ~a:99 ~b:2 (* orphaned end *);
  Tracer.set_tid tr (fun () -> -1);
  Tracer.emit tr ~code:Event.crash ~a:0 ~b:0;
  Tracer.phase_begin tr ~phase:Event.phase_log_scan;
  Tracer.phase_end tr ~phase:Event.phase_log_scan;
  Tracer.phase_begin tr ~phase:Event.phase_rollback (* left open: closer *);
  let hostile tid = Printf.sprintf "w\"%d\\\n\x02" tid in
  let s = Chrome.to_string ~thread_name:hostile tr in
  Alcotest.(check bool) "has traceEvents" true
    (String.length s > 16 && String.sub s 0 16 = "{\"traceEvents\":[");
  check_json_shape s

(* --- Zero-allocation contracts --- *)

let words_per_op f ops =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int ops

(* The tracing-disabled hot path: a device with no tracer attached must
   stay allocation-free through the [trace] match in every op. *)
let test_no_alloc_disabled () =
  let pmem = small_pmem () in
  let ops = 100_000 in
  (* warm the cache/closures outside the measured window *)
  Nvm.Pmem.store_int pmem 0 1;
  let per_op =
    words_per_op
      (fun () ->
        for i = 1 to ops do
          let addr = i * 8 land 0xFF8 in
          Nvm.Pmem.store_int pmem addr i;
          ignore (Nvm.Pmem.load_int pmem addr : int)
        done)
      (2 * ops)
  in
  if per_op > 0.01 then
    Alcotest.failf "tracing-disabled path allocates %.4f minor words/op" per_op

(* Emission itself: packed ints into a preallocated ring. *)
let test_no_alloc_emit () =
  let tr = Tracer.create ~ring_cap:1024 ~budget_lines:100 () in
  let clk = ref 0 in
  Tracer.set_clock tr (fun () -> incr clk; !clk);
  Tracer.set_tid tr (fun () -> 2);
  Tracer.set_dirty tr (fun () -> !clk land 255);
  let ops = 100_000 in
  Tracer.emit tr ~code:Event.store ~a:0 ~b:0;
  let per_op =
    words_per_op
      (fun () ->
        for i = 1 to ops do
          Tracer.emit tr ~code:Event.store ~a:i ~b:4
        done)
      ops
  in
  if per_op > 0.01 then
    Alcotest.failf "emit allocates %.4f minor words/op" per_op

(* --- Determinism: traced run == untraced run, through a crash --- *)

let traced_config tracer =
  {
    (Runner.calibrated_config
       { Nvm.Config.desktop with Nvm.Config.cache_lines = 512 })
    with
    Runner.variant = Runner.Mutex_map Atlas.Mode.Log_only;
    workload = Runner.Counters { h_keys = 64; preload = true };
    threads = 2;
    iterations = 150;
    n_buckets = 128;
    log_mib = 1;
    crash_at_step = Some 12_000;
    tracer;
  }

let test_traced_identical () =
  let off = Runner.run (traced_config None) in
  let tr = Tracer.create ~ring_cap:4096 () in
  let on = Runner.run (traced_config (Some tr)) in
  Alcotest.(check bool) "untraced consistent" true (Runner.consistent off);
  Alcotest.(check bool) "traced consistent" true (Runner.consistent on);
  Alcotest.(check int) "identical sim cycles" off.Runner.elapsed_cycles
    on.Runner.elapsed_cycles;
  Alcotest.(check bool) "events were emitted" true (Tracer.emitted tr > 0);
  (* the run crashed and recovered, so the trace saw it *)
  Alcotest.(check int) "one crash" 1 (Tracer.count tr Event.crash);
  Alcotest.(check int) "one recover" 1 (Tracer.count tr Event.recover);
  Alcotest.(check bool) "log scan phase timed" true
    (Tracer.phase_cycles tr Event.phase_log_scan > 0)

(* --- Metrics --- *)

let test_metrics_counts () =
  let tr = Tracer.create ~ring_cap:64 () in
  List.iter
    (fun (code, b) -> Tracer.emit tr ~code ~a:0 ~b)
    [
      (Event.load, 3); (Event.load, 4); (Event.store, 5);
      (Event.flush, 7); (Event.flush, 7); (Event.flush, 7);
      (Event.fence, 9);
      (Event.ocs_begin, 0); (Event.ocs_begin, 0);
      (Event.ocs_commit, 0); (Event.ocs_commit, 0);
      (Event.log_append, 0); (Event.log_append, 0); (Event.log_append, 0);
      (Event.log_append, 0);
    ];
  let m = Metrics.of_tracer tr in
  Alcotest.(check int) "loads" 2 m.Metrics.loads;
  Alcotest.(check int) "stores" 1 m.Metrics.stores;
  Alcotest.(check int) "flushes" 3 m.Metrics.flushes;
  Alcotest.(check int) "commits" 2 m.Metrics.ocs_commits;
  Alcotest.(check (float 1e-9)) "fences/commit" 0.5 m.Metrics.fences_per_commit;
  Alcotest.(check (float 1e-9)) "flushes/commit" 1.5
    m.Metrics.flushes_per_commit;
  Alcotest.(check (float 1e-9)) "appends/commit" 2.0
    m.Metrics.appends_per_commit;
  Alcotest.(check int) "load cycles" 7
    (List.assoc "load" m.Metrics.op_cycles);
  Alcotest.(check int) "flush cycles" 21
    (List.assoc "flush" m.Metrics.op_cycles)

(* The headline bugfix: commit-free designs (skip list, NVTraverse,
   delay-free) never emit an OCS commit, so the per-commit psync rates
   divide by zero ops — the report used to show nothing at all for the
   very designs whose flush economy is the point.  With [completed_ops]
   supplied, the per-op rates carry the signal; the per-commit ones stay
   defined (0.0) and the printer keys on whichever denominator is
   nonzero. *)
let test_metrics_zero_commit () =
  let tr = Tracer.create ~ring_cap:64 () in
  List.iter
    (fun (code, b) -> Tracer.emit tr ~code ~a:0 ~b)
    [
      (Event.flush, 7); (Event.flush, 7); (Event.flush, 7); (Event.flush, 7);
      (Event.fence, 9); (Event.fence, 9);
    ];
  let m = Metrics.of_tracer ~completed_ops:8 tr in
  Alcotest.(check int) "no commits" 0 m.Metrics.ocs_commits;
  Alcotest.(check int) "completed ops recorded" 8 m.Metrics.completed_ops;
  Alcotest.(check (float 1e-9)) "flushes/op" 0.5 m.Metrics.flushes_per_op;
  Alcotest.(check (float 1e-9)) "fences/op" 0.25 m.Metrics.fences_per_op;
  Alcotest.(check (float 1e-9)) "appends/op" 0.0 m.Metrics.appends_per_op;
  Alcotest.(check (float 1e-9)) "flushes/commit defined as 0" 0.0
    m.Metrics.flushes_per_commit;
  (* The render must surface the per-op line (and only it). *)
  let rendered = Fmt.str "%a" Metrics.pp m in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s
                   && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "per-op line printed" true
    (contains rendered "per completed op");
  Alcotest.(check bool) "per-commit line suppressed" false
    (contains rendered "per commit");
  (* And without any denominator at all, rates are all zero, not NaN. *)
  let m0 = Metrics.of_tracer tr in
  Alcotest.(check (float 1e-9)) "no denominator: flushes/op 0" 0.0
    m0.Metrics.flushes_per_op

(* --- Json: the shared writer/reader behind every artifact --- *)

(* One document exercising every value form plus the hostile cases: a
   string full of quotes/backslashes/control chars, and a NaN (which
   must render as null — the strict snapshot checker rejects bare nan
   tokens).  The writer's output must satisfy the structural scanner
   and parse back through the reader with the same shape. *)
let test_json_writer_roundtrip () =
  let module J = Obs.Json in
  let j = J.create () in
  J.obj_open j;
  J.key j "name";
  J.str j "w\"q\\b\nnl\x02ctl";
  J.key j "n";
  J.int j (-42);
  J.key j "nan";
  J.float j Float.nan;
  J.key j "rate";
  J.float j 1.25;
  J.key j "ok";
  J.bool j true;
  J.key j "nil";
  J.null j;
  J.line_break j;
  J.key j "xs";
  J.arr_open j;
  List.iter
    (fun x ->
      J.line_break j;
      J.int j x)
    [ 1; 2; 3 ];
  J.arr_close j;
  J.key j "nested";
  J.obj_open j;
  J.key j "empty";
  J.arr_open j;
  J.arr_close j;
  J.obj_close j;
  J.obj_close j;
  let s = J.contents j in
  check_json_shape s;
  match J.parse s with
  | Error e -> Alcotest.failf "writer output rejected by reader: %s" e
  | Ok doc ->
      (match J.member "nan" doc with
      | Some J.Null -> ()
      | _ -> Alcotest.fail "NaN must render as null");
      (match J.member "name" doc with
      | Some (J.Str _) -> ()
      | _ -> Alcotest.fail "hostile string survives");
      (match J.member "xs" doc with
      | Some (J.Arr [ J.Num a; J.Num b; J.Num c ]) ->
          Alcotest.(check (float 1e-9)) "array elements" 6.0 (a +. b +. c)
      | _ -> Alcotest.fail "array shape");
      (match J.member "rate" doc with
      | Some (J.Num f) -> Alcotest.(check (float 1e-9)) "fixed-point" 1.25 f
      | _ -> Alcotest.fail "float member")

(* The reader is the well-formedness gate behind check_json, so it must
   hold the RFC 8259 grammar, not whatever [float_of_string] accepts. *)
let test_json_reader_strict () =
  let module J = Obs.Json in
  List.iter
    (fun doc ->
      match J.parse doc with
      | Ok _ -> Alcotest.failf "accepted non-RFC 8259 input %S" doc
      | Error _ -> ())
    [
      "1."; "[01]"; "01"; "-01"; "-"; ".5"; "+1"; "1e"; "1.e3"; "\"a\tb\"";
      "\"a\nb\""; "\"\\u12g4\""; "\"\\u00\""; "[1,]"; "{\"a\":1,}";
    ];
  List.iter
    (fun doc ->
      match J.parse doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rejected valid input %S: %s" doc e)
    [
      "0"; "-0"; "10"; "-0.5e+3"; "1E-2"; "[0,1]"; "\"a\\tb\\u0041\"";
      " {\"k\": [true, null]} ";
    ]

(* --- Hist: bucketed quantiles vs the exact nearest-rank values --- *)

(* The histogram promises <= 6.25% relative bucket error.  Feed it a
   log-spread sample set and compare every headline quantile against
   the exact nearest-rank answer from Workload.Report.percentiles (the
   same convention Hist.quantile documents). *)
let test_hist_quantile_error () =
  let rng = Random.State.make [| 4242 |] in
  let n = 10_000 in
  let samples =
    Array.init n (fun _ ->
        let octave = Random.State.int rng 14 in
        let base = 1 lsl octave in
        base + Random.State.int rng base)
  in
  let h = Obs.Hist.create () in
  Array.iter (Obs.Hist.add h) samples;
  Alcotest.(check int) "exact count" n (Obs.Hist.count h);
  Alcotest.(check int) "exact sum"
    (Array.fold_left ( + ) 0 samples)
    (Obs.Hist.sum h);
  List.iter
    (fun (q, exact) ->
      let est = Obs.Hist.quantile h q in
      let err =
        Float.abs (float_of_int est -. float_of_int exact)
        /. float_of_int (max exact 1)
      in
      if err > 0.0625 then
        Alcotest.failf "p%g: bucketed %d vs exact %d (%.2f%% error)"
          (q *. 100.) est exact (100. *. err))
    (Workload.Report.percentiles (Array.copy samples) [ 0.5; 0.9; 0.99; 0.999 ])

(* Hist.add sits on the tracer emit path and the service latency sink,
   so it carries the same Gc.minor_words contract as emit itself. *)
let test_hist_no_alloc () =
  let h = Obs.Hist.create () in
  let ops = 100_000 in
  Obs.Hist.add h 1 (* warm outside the measured window *);
  let per_op =
    words_per_op
      (fun () ->
        for i = 1 to ops do
          Obs.Hist.add h (i * 2654435761 land 0xFFFFF)
        done)
      ops
  in
  if per_op > 0.01 then
    Alcotest.failf "Hist.add allocates %.4f minor words/op" per_op;
  Alcotest.(check int) "no samples dropped" (ops + 1) (Obs.Hist.count h)

(* --- Signature: stable identity for "the same bug" --- *)

let test_signature_normalize () =
  let module S = Obs.Signature in
  Alcotest.(check string) "digit runs collapse"
    "counter #: expected # found #"
    (S.normalize "counter 123: expected 40 found 7");
  let once = S.normalize "k9 v10 #already" in
  Alcotest.(check string) "idempotent" once (S.normalize once);
  Alcotest.(check string) "shape buckets" "few" (S.shape_of_count 3);
  Alcotest.(check string) "shape none floors" "none" (S.shape_of_count (-1));
  let s1 =
    S.make ~klass:"invariant" ~phase:"full-discard"
      ~invariant:"counter 12: expected 40 found 13"
      ~shape:(S.shape_of_count 3)
  in
  let s2 =
    S.make ~klass:"invariant" ~phase:"full-discard"
      ~invariant:"counter 999: expected 1 found 0"
      ~shape:(S.shape_of_count 4)
  in
  Alcotest.(check bool) "per-key digits don't distinguish" true
    (S.equal s1 s2);
  let s3 =
    S.make ~klass:"invariant" ~phase:"torn-lines"
      ~invariant:"counter 12: expected 40 found 13"
      ~shape:(S.shape_of_count 3)
  in
  Alcotest.(check bool) "phase does distinguish" false (S.equal s1 s3);
  Alcotest.(check int) "hash is 16 hex digits" 16
    (String.length s1.S.hash);
  String.iter
    (function
      | '0' .. '9' | 'a' .. 'f' -> ()
      | c -> Alcotest.failf "non-hex hash char %C" c)
    s1.S.hash;
  (* feeding a signature's own (already normalized) fields back yields
     the identical signature — make is a fixpoint *)
  let s1' =
    S.make ~klass:s1.S.klass ~phase:s1.S.phase ~invariant:s1.S.invariant
      ~shape:s1.S.shape
  in
  Alcotest.(check bool) "make is a fixpoint" true (S.equal s1 s1')

(* The `faults --smoke` base: small cache so discard-class faults
   genuinely lose lines (same rationale as test_faults.ml). *)
module FM = Nvm.Fault_model
module FI = Workload.Fault_injector

let faults_base =
  {
    (Runner.smoke (Runner.calibrated_config Nvm.Config.desktop)) with
    Runner.variant = Runner.Mutex_map Atlas.Mode.Log_only;
  }

(* The ISSUE's headline property: the same bug observed at two
   different seeds AND two different crash points hashes to the same
   signature — triage dedupes a thousand-point campaign to its
   distinct failure modes.  Log-only under Full_discard is the
   documented-expected violation used by the smoke preset. *)
let test_signature_crash_point_independent () =
  let spec =
    { (FI.default_spec faults_base) with
      FI.fault_models = [ Some FM.Full_discard ] }
  in
  (* two sightings of the eq1 ledger bug at different seeds AND crash
     points, plus one sighting of the distinct eq2 histogram bug *)
  let o1 =
    FI.one spec ~fault:(Some FM.Full_discard) ~seed:11 ~crash_step:11_000
  in
  let o2 =
    FI.one spec ~fault:(Some FM.Full_discard) ~seed:7 ~crash_step:15_000
  in
  let o3 =
    FI.one spec ~fault:(Some FM.Full_discard) ~seed:3 ~crash_step:6_000
  in
  Alcotest.(check bool) "all three crash points violate" true
    (o1.FI.violation && o2.FI.violation && o3.FI.violation);
  Alcotest.(check bool) "crash steps differ" true
    (o1.FI.crash_step <> o2.FI.crash_step);
  match (FI.signature_of o1, FI.signature_of o2, FI.signature_of o3) with
  | Some s1, Some s2, Some s3 ->
      Alcotest.(check bool) "same bug, same signature across seed and crash"
        true
        (Obs.Signature.equal s1 s2);
      Alcotest.(check bool) "different bug, different signature" false
        (Obs.Signature.equal s1 s3)
  | _ -> Alcotest.fail "violating outcomes must carry signatures"

(* --- Artifact: byte-identity across --jobs, replay-argv hygiene --- *)

(* The results document is a pure function of the spec: fanning the
   same campaign over 1, 2 and 4 domains must render byte-identical
   artifacts (the dune-level gate checks the full CLI path; this pins
   the library layer). *)
let test_artifact_jobs_identical () =
  let spec =
    { (FI.default_spec faults_base) with
      FI.runs = 3; min_step = 2_000; max_step = 12_000; campaign_seed = 7 }
  in
  let doc jobs =
    let s = FI.run ~jobs spec in
    Obs.Artifact.results ~subcommand:"faults" ~body:(fun j ->
        Obs.Json.key j "campaigns";
        Obs.Json.arr_open j;
        FI.to_json j s;
        Obs.Json.arr_close j)
  in
  let d1 = doc 1 in
  Alcotest.(check string) "jobs 1 = jobs 2" d1 (doc 2);
  Alcotest.(check string) "jobs 1 = jobs 4" d1 (doc 4);
  match Obs.Json.parse d1 with
  | Error e -> Alcotest.failf "results document malformed: %s" e
  | Ok v -> (
      match Obs.Json.member "schema" v with
      | Some (Obs.Json.Str s) ->
          Alcotest.(check string) "schema stamp" Obs.Artifact.results_schema s
      | _ -> Alcotest.fail "results document carries its schema")

(* Run-only knobs must never reach the stored replay argv: --jobs/-j,
   --artifact-dir and --replay are dropped in the "--flag v" and
   "--flag=v" spellings and -j also as "-jN"; campaign flags pass
   through untouched. *)
let test_artifact_replay_args () =
  Alcotest.(check (list string))
    "run-only flags stripped"
    [ "faults"; "--smoke"; "--seed=7"; "--shrink" ]
    (Obs.Artifact.replay_args
       [|
         "tsp"; "faults"; "--smoke"; "--jobs"; "4"; "--artifact-dir"; "out";
         "--seed=7"; "-j"; "2"; "--replay=m.json"; "--shrink";
         "--artifact-dir=o2"; "-j2";
       |])

let suite =
  ( "obs",
    [
      case "event/pack-roundtrip" test_pack_roundtrip;
      case "tracer/ring-wrap" test_ring_wrap;
      case "tracer/exposure-budget" test_exposure_budget;
      case "chrome/escape" test_chrome_escape;
      case "chrome/wellformed-hostile-names" test_chrome_wellformed;
      case "tracer/no-alloc-disabled" test_no_alloc_disabled;
      case "tracer/no-alloc-emit" test_no_alloc_emit;
      case "runner/traced-identical" test_traced_identical;
      case "metrics/counts" test_metrics_counts;
      case "metrics/zero-commit-per-op" test_metrics_zero_commit;
      case "json/writer-roundtrip-hostile" test_json_writer_roundtrip;
      case "json/reader-rfc8259-strict" test_json_reader_strict;
      case "hist/quantile-error-bound" test_hist_quantile_error;
      case "hist/no-alloc-add" test_hist_no_alloc;
      case "signature/normalize-idempotent" test_signature_normalize;
      case "signature/crash-point-independent"
        test_signature_crash_point_independent;
      case "artifact/jobs-byte-identical" test_artifact_jobs_identical;
      case "artifact/replay-args-stripped" test_artifact_replay_args;
    ] )
