(* Host-time benchmark of the simulator: one workload per process.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
     main.exe --smoke [--out FILE]

   Untraced, it times whole rounds of units in a closed loop (one client;
   the next unit starts when the last one returns): as many rounds as take
   [--seconds] on the reference host, and at least one pass over the
   workload's units.  It reports the end-to-end metrics.  Traced, it runs
   every unit through its traced form, runs the first quarter of them
   untraced as well for comparison, then runs the layer probes, and
   reports the per-layer metrics; the spans go to a Chrome trace next to
   [--out].  Every metric is printed as [name value unit], and the last
   line of standard output is the result as one JSON object.  [--smoke]
   runs all four workloads at minimal size, traced and untraced, and exits
   non-zero unless every unit passes its checks and both forms give the
   same sim_digest. *)

open Workloads

type counts = { mutable attempted : int; mutable failed : int }

(* A unit that raises counts as failed. *)
let guarded ~default f =
  try f ()
  with e ->
    prerr_endline ("unit raised " ^ Printexc.to_string e);
    default

(* Score one round.  [stored] holds each unit's digest from its first
   run: a unit that runs again must reproduce it, and every unit of a
   round must agree on [cross]. *)
let judge counts ~round stored outs =
  let cross = outs.(0).cross in
  Array.iteri
    (fun k o ->
      let same =
        match stored.(k) with
        | None ->
            stored.(k) <- Some o.digest;
            true
        | Some d -> d = o.digest
      in
      counts.attempted <- counts.attempted + 1;
      if not (o.ok && o.cross = cross && same) then begin
        counts.failed <- counts.failed + 1;
        Printf.eprintf "round %d unit %d failed:%s%s%s\n%!" round k
          (if o.ok then "" else " output check")
          (if o.cross = cross then "" else " differs from its round")
          (if same then "" else " differs from its first run")
      end)
    outs

let sim_digest stored =
  Array.fold_left
    (Array.fold_left (fun h d -> fnv h (Option.value d ~default:0)))
    fnv_basis stored

let seconds_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e9

(* One measured call (a set-up or a unit), with the host-speed reference
   ([Clock.reference_ns]) sampled just before it. *)
type timed = { ref_ns : float; wall_ms : float; cpu_ms : float }

let timed_run f =
  let ref_ns = float_of_int (Clock.reference_ns ()) in
  let c0 = Clock.cpu () and t0 = Clock.now_ns () in
  let v = f () in
  let c1 = Clock.cpu () in
  ( v,
    {
      ref_ns;
      wall_ms = float_of_int (Clock.now_ns () - t0) /. 1e6;
      cpu_ms = (c1.user -. c0.user +. c1.sys -. c0.sys) *. 1000.;
    } )

(* Each call's factor to the reference host's speed, from the mean of the
   samples just before and just after it; [after] is the sample that
   follows the last call. *)
let factors calls ~after =
  let n = Array.length calls in
  Array.init n (fun i ->
      let next = if i + 1 < n then calls.(i + 1).ref_ns else after in
      Clock.reference_host_ns /. ((calls.(i).ref_ns +. next) /. 2.))

(* Set up five times (build the inputs, run the first unit as a
   discarded warm-up). *)
let setup name ~seed ~smoke counts =
  let runs =
    Array.init 5 (fun _ ->
        timed_run (fun () ->
            let w = Workloads.make name ~seed ~smoke in
            let warm_up = guarded ~default:failed w.rounds.(0).(0).run in
            judge counts ~round:(-1) [| None |] [| warm_up |];
            w))
  in
  (fst runs.(0), Array.map snd runs)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* The timed phase: a fixed number of whole rounds, at least one pass,
   cycling through the pass; each unit's peak RSS is taken alone.  Every
   time is rescaled to the reference host's speed, call by call; the raw
   values come back alongside. *)
let untraced (w : Workloads.t) ~seconds ~setup counts =
  let nr = Array.length w.rounds in
  let rounds = max nr (int_of_float (Float.ceil (seconds /. w.round_s))) in
  let stored = Array.map (fun r -> Array.make (Array.length r) None) w.rounds in
  let calls = ref [] and rss = ref [] in
  let t0 = Clock.now_ns () in
  for r = 0 to rounds - 1 do
    let i = r mod nr in
    let outs =
      Array.map
        (fun u ->
          Clock.reset_peak_rss ();
          let o, call = timed_run (fun () -> guarded ~default:failed u.run) in
          calls := call :: !calls;
          rss := Clock.peak_rss_mb () :: !rss;
          o)
        w.rounds.(i)
    in
    judge counts ~round:i stored.(i) outs
  done;
  let wall = seconds_since t0 in
  let after = float_of_int (Clock.reference_ns ()) in
  let calls = Array.of_list (List.rev !calls) in
  let f = factors calls ~after in
  let setup_f = factors setup ~after:calls.(0).ref_ns in
  let sum = Array.fold_left ( +. ) 0. in
  let n = float_of_int (Array.length calls) in
  let ms = Array.map (fun c -> c.wall_ms) calls in
  let scaled = Array.mapi (fun i c -> c.wall_ms *. f.(i)) calls in
  let cpu = Array.map (fun c -> c.cpu_ms) calls in
  let setup_s = Array.map (fun c -> c.wall_ms /. 1000.) setup in
  let refs = Array.map (fun c -> c.ref_ns) (Array.append setup calls) in
  ( sim_digest stored,
    [
      m "units_per_s" (n /. (sum scaled /. 1000.)) "1/s";
      m "setup_s" (Clock.median (Array.mapi (fun i s -> s *. setup_f.(i)) setup_s)) "s";
      m "unit_ms_p50" (Clock.quantile scaled 0.5) "ms";
      m "unit_ms_p90" (Clock.quantile scaled 0.9) "ms";
      m "cpu_ms_per_unit" (sum (Array.mapi (fun i c -> c *. f.(i)) cpu) /. n) "ms";
      (* the reference buffer is resident throughout; it is not the
         simulator's *)
      m "peak_rss_mb"
        ((List.fold_left ( +. ) 0. !rss /. n) -. float_of_int Clock.reference_mib)
        "MiB";
      m "samples" n "count";
    ],
    [
      m "units_per_s" (n /. wall) "1/s";
      m "setup_s" (Clock.median setup_s) "s";
      m "unit_ms_p50" (Clock.quantile ms 0.5) "ms";
      m "unit_ms_p90" (Clock.quantile ms 0.9) "ms";
      m "cpu_ms_per_unit" (sum cpu /. n) "ms";
      m "reference_ms" (Clock.median refs /. 1e6) "ms";
    ],
    ms )

(* One untraced run of a unit, with its host-side costs. *)
type sample = {
  ns : float;
  user : float;
  sys : float;
  minor : float;
  promoted : float;
  majors : int;
}

let measured f =
  let g0 = Gc.quick_stat () and c0 = Clock.cpu () and t0 = Clock.now_ns () in
  let o = guarded ~default:failed f in
  let t1 = Clock.now_ns () and c1 = Clock.cpu () and g1 = Gc.quick_stat () in
  ( o,
    {
      ns = float_of_int (t1 - t0);
      user = c1.user -. c0.user;
      sys = c1.sys -. c0.sys;
      minor = g1.minor_words -. g0.minor_words;
      promoted = g1.promoted_words -. g0.promoted_words;
      majors = g1.major_collections - g0.major_collections;
    } )

let traced (w : Workloads.t) ~seed ~smoke counts =
  let ctx = { spans = Spans.create (); tally = Hashtbl.create 64 } in
  let nr = Array.length w.rounds in
  let stored = Array.map (fun r -> Array.make (Array.length r) None) w.rounds in
  let heap_top_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let unit_id = ref 0 and unit_counts = Hashtbl.create 16 and ref_counts = Hashtbl.create 16 in
  let bump tbl (key, v) =
    Hashtbl.replace tbl key (v + Option.value (Hashtbl.find_opt tbl key) ~default:0)
  in
  let traced_unit u =
    Spans.set_unit ctx.spans !unit_id;
    incr unit_id;
    let t0 = Clock.now_ns () in
    let o, c =
      Spans.span ctx.spans "bench.unit" (fun () ->
          guarded ~default:(failed, []) (fun () -> u.traced ctx))
    in
    List.iter (bump unit_counts) c;
    (o, c, float_of_int (Clock.now_ns () - t0))
  in
  (* Every unit runs in its traced form.  In the first quarter of the
     rounds each unit also runs untraced, right before or right after
     (alternately), and those untraced runs are the base of the overhead
     and of every host-cost ratio. *)
  let q = (nr + 3) / 4 in
  let reference = ref [] and overhead = ref [] in
  Array.iteri
    (fun i round ->
      let runs =
        Array.map
          (fun u ->
            if i >= q then (None, traced_unit u)
            else if !unit_id mod 2 = 0 then
              let r = measured u.run in
              (Some r, traced_unit u)
            else
              let t = traced_unit u in
              (Some (measured u.run), t))
          round
      in
      let untraced = Array.to_list runs |> List.filter_map fst |> Array.of_list in
      Array.iter
        (fun (r, (_, c, ns)) ->
          Option.iter
            (fun (_, s) ->
              reference := s :: !reference;
              overhead := (ns /. s.ns) :: !overhead;
              List.iter (bump ref_counts) c)
            r)
        runs;
      if untraced <> [||] then judge counts ~round:i stored.(i) (Array.map fst untraced);
      judge counts ~round:i stored.(i) (Array.map (fun (_, (o, _, _)) -> o) runs))
    w.rounds;
  Spans.set_unit ctx.spans (-1);
  let probe_cpu, probe_wall =
    Probes.run ctx w ~seed ~smoke ~check:(fun o -> judge counts ~round:(-1) [| None |] [| o |])
  in
  let rows = Spans.table ctx.spans in
  let row name = List.find_opt (fun r -> r.Spans.span_name = name) rows in
  let p50 name = Clock.median (Spans.durations ctx.spans name) in
  let ms name = p50 name /. 1e6 in
  let get tbl key = float_of_int (Option.value (Hashtbl.find_opt tbl key) ~default:0) in
  let units = float_of_int !unit_id in
  let per_unit key = get unit_counts key /. units in
  let per key denom = get ctx.tally key /. Float.max 1. (get ctx.tally denom) in
  let ref_samples = Array.of_list !reference in
  let nref = float_of_int (Array.length ref_samples) in
  let ref_sum f = Array.fold_left (fun a s -> a +. f s) 0. ref_samples in
  let ref_p50_ms = Clock.median (Array.map (fun s -> s.ns) ref_samples) /. 1e6 in
  let loop_ns name iters = p50 name /. float_of_int iters in
  let iters = if smoke then 1 lsl 12 else 1 lsl 17 in
  let quantum_op_ns = loop_ns "sched.quantum_loop" (2 * iters) in
  let ref_steps = get ref_counts "steps" in
  let op = Option.get (row Spans.op_name) in
  let create_ms = ms "nvm.pmem_create" in
  let keys = if smoke then 1000 else 10_000 in
  ( sim_digest stored,
    [
      m "nvm.pmem_create_ms" create_ms "ms";
      m "nvm.create_share" (float_of_int w.machines *. create_ms /. ref_p50_ms) "ratio";
      m "nvm.loadstore_ns" (loop_ns "nvm.loadstore" (2 * iters)) "ns";
      m "nvm.host_ns_per_device_op" (ref_sum (fun s -> s.ns) /. get ref_counts "device_ops") "ns";
      m "nvm.flush_fence_ns" (loop_ns "nvm.flush_fence" iters) "ns";
      m "nvm.device_ops_per_unit" (per_unit "device_ops") "count";
      m "nvm.flushes_per_unit" (per_unit "flushes") "count";
      m "nvm.hit_rate" (get unit_counts "hits" /. get unit_counts "accesses") "ratio";
      m "sched.quantum_op_ns" quantum_op_ns "ns";
      (* a workload that drives no scheduler steps reports the bare
         scheduler's cost per step instead *)
      m "sched.host_ns_per_step"
        (if ref_steps > 0. then ref_sum (fun s -> s.ns) /. ref_steps else quantum_op_ns)
        "ns";
      m "sched.steps_per_unit" (per_unit "steps") "count";
      m "sched.ctx_switches_per_unit" (per_unit "ctx_switches") "count";
      m "atlas.append_ns" (loop_ns "atlas.append_loop" iters) "ns";
      m "atlas.log_appends_per_unit" (per_unit "log_appends") "count";
      m "atlas.ocs_commits_per_unit" (per_unit "ocs_commits") "count";
      (* host time inside map operations (the union over the interleaved
         simulated threads) per operation *)
      m "tsp_maps.op_ns" (float_of_int op.busy_ns /. float_of_int op.count) "ns";
      m "tsp_maps.hash_get_ns" (loop_ns "tsp_maps.hash_get_loop" keys) "ns";
      m "tsp_maps.skiplist_get_ns" (loop_ns "tsp_maps.skiplist_get_loop" keys) "ns";
      m "tsp_maps.populate_ms" (ms "tsp_maps.populate") "ms";
      m "tsp_maps.ops_per_unit" (per_unit "map_ops") "count";
      m "pheap.alloc_free_ns" (loop_ns "pheap.alloc_free_loop" iters) "ns";
      m "pheap.gc_advance_ms" (ms "pheap.gc_advance") "ms";
      m "pheap.gc_finish_ms" (ms "pheap.gc_finish") "ms";
      m "pheap.live_objects" (per "pheap.live" "pheap.replays") "count";
      m "pheap.freed_objects" (per "pheap.freed" "pheap.replays") "count";
      m "core.crash_execute_ms" (ms "core.crash_execute") "ms";
      m "workload.recover_ms.eager" (ms "workload.recover.eager") "ms";
      m "workload.recover_ms.parallel" (ms "workload.recover.parallel") "ms";
      m "workload.recover_ms.incremental" (ms "workload.recover.incremental") "ms";
      m "workload.image_hash_ms" (ms "workload.image_hash") "ms";
    ]
    @ List.map
        (fun fault ->
          let l = leg fault in
          m ("workload.fault_one_ms." ^ l) (ms ("workload.fault_one." ^ l)) "ms")
        (None :: List.map Option.some Nvm.Fault_model.reference)
    @ [
        m "workload.parallel_cpu_per_wall" (probe_cpu /. probe_wall) "ratio";
        m "check.dl_check_ms" (ms "check.dl_check") "ms";
        m "check.history_ops_per_unit" (per "check.history_ops" "check.replays") "count";
        m "check.dl_capped_keys" (per "check.capped_keys" "check.replays") "count";
        m "service.jobs2_speedup"
          (p50 "service.serve_jobs1" /. p50 "service.serve_jobs2")
          "ratio";
        m "service.steps_per_unit" (per "service.steps" "service.runs") "count";
        m "service.victim_recovery_cycles"
          (per "service.victim_recovery_cycles" "service.runs")
          "cycles";
        m "obs.trace_overhead_frac" (Clock.median (Array.of_list !overhead) -. 1.) "ratio";
        m "proc.user_s" (ref_sum (fun s -> s.user) /. nref) "s";
        m "proc.sys_s" (ref_sum (fun s -> s.sys) /. nref) "s";
        m "gc.minor_words_per_unit" (ref_sum (fun s -> s.minor) /. nref) "words";
        m "gc.promoted_words_per_unit" (ref_sum (fun s -> s.promoted) /. nref) "words";
        m "gc.major_collections_per_unit"
          (ref_sum (fun s -> float_of_int s.majors) /. nref)
          "count";
        m "gc.heap_top_mb" heap_top_mb "MiB";
      ],
    ctx.spans,
    rows )

(* --- output ---------------------------------------------------------- *)

module J = Obs.Json

let number j v = J.raw j (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")

let metrics_json j ms =
  J.obj_open j;
  List.iter
    (fun x ->
      J.key j x.name;
      J.obj_open j;
      J.key j "value";
      number j x.value;
      J.key j "unit";
      J.str j x.unit_;
      J.obj_close j)
    ms;
  J.obj_close j

let self_time_json j rows =
  J.key j "self_time";
  J.arr_open j;
  List.iter
    (fun (r : Spans.row) ->
      J.obj_open j;
      J.key j "span";
      J.str j r.span_name;
      J.key j "count";
      J.int j r.count;
      J.key j "total_ms";
      number j (float_of_int r.total_ns /. 1e6);
      J.key j "self_ms";
      number j (float_of_int r.self_ns /. 1e6);
      J.obj_close j)
    rows;
  J.arr_close j;
  J.key j "layer_self_ms";
  J.obj_open j;
  List.iter
    (fun (l, ns) ->
      J.key j l;
      number j (float_of_int ns /. 1e6))
    (Spans.layers rows);
  J.obj_close j

let print_metrics ms = List.iter (fun x -> Printf.printf "%s %.6g %s\n" x.name x.value x.unit_) ms

let write_file path j =
  (match Filename.dirname path with
  | "." -> ()
  | d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755);
  Out_channel.with_open_bin path (fun oc -> J.to_channel oc j)

let trace_path out = Filename.remove_extension out ^ ".trace.json"

(* The result of one run: the file at [out] and the final stdout line. *)
let report ~workload ~seed ~trace ~out ~digest ~counts ~metrics ~spans ~extra =
  let fail_frac = float_of_int counts.failed /. float_of_int (max 1 counts.attempted) in
  let shown = metrics in
  print_metrics shown;
  Printf.printf "fail_frac %.6g ratio\nsim_digest %016x\n" fail_frac digest;
  let j = J.create () in
  J.obj_open j;
  J.key j "workload";
  J.str j workload;
  J.key j "seed";
  J.int j seed;
  J.key j "trace";
  J.bool j trace;
  J.key j "sim_digest";
  J.str j (Printf.sprintf "%016x" digest);
  J.key j "attempted";
  J.int j counts.attempted;
  J.key j "failed";
  J.int j counts.failed;
  J.key j "fail_frac";
  number j fail_frac;
  J.key j "metrics";
  metrics_json j shown;
  extra j;
  J.obj_close j;
  write_file out j;
  Option.iter
    (fun spans -> Spans.write_chrome spans (trace_path out))
    spans;
  (* the machine-readable result; "samples" stays in the listing above *)
  let line = J.create () in
  J.obj_open line;
  J.key line "correct";
  J.bool line (counts.failed = 0);
  J.key line "attempted";
  J.int line counts.attempted;
  J.key line "failed";
  J.int line counts.failed;
  J.key line "metrics";
  metrics_json line (List.filter (fun x -> x.name <> "samples") shown);
  J.obj_close line;
  print_endline (J.contents line)

let run_workload name ~seed ~seconds ~trace ~out =
  let counts = { attempted = 0; failed = 0 } in
  let w, setup = setup name ~seed ~smoke:false counts in
  if trace then
    let digest, metrics, spans, rows = traced w ~seed ~smoke:false counts in
    report ~workload:name ~seed ~trace ~out ~digest ~counts ~metrics ~spans:(Some spans)
      ~extra:(fun j -> self_time_json j rows)
  else
    let digest, metrics, raw, samples = untraced w ~seconds ~setup counts in
    List.iter (fun x -> Printf.printf "raw.%s %.6g %s\n" x.name x.value x.unit_) raw;
    report ~workload:name ~seed ~trace ~out ~digest ~counts ~metrics ~spans:None
      ~extra:(fun j ->
        J.key j "raw";
        metrics_json j raw;
        J.key j "unit_ms";
        J.arr_open j;
        Array.iter (number j) samples;
        J.arr_close j)

(* All four workloads at minimal size, untraced then traced. *)
let smoke ~out =
  let ok = ref true in
  let j = J.create () in
  J.obj_open j;
  List.iter
    (fun name ->
      let counts = { attempted = 0; failed = 0 } in
      let w = Workloads.make name ~seed:1 ~smoke:true in
      let d_untraced, _, _, _ = untraced w ~seconds:0. ~setup:[||] counts in
      let d_traced, metrics, spans, _ = traced w ~seed:1 ~smoke:true counts in
      Spans.write_chrome spans (trace_path (Filename.remove_extension out ^ "." ^ name ^ ".json"));
      let pass = counts.failed = 0 && d_untraced = d_traced in
      Printf.printf "%s: %d units, %d failed, sim_digest %016x untraced / %016x traced: %s\n%!"
        name
        counts.attempted counts.failed d_untraced d_traced
        (if pass then "ok" else "FAIL");
      ok := !ok && pass;
      J.key j name;
      J.obj_open j;
      J.key j "pass";
      J.bool j pass;
      J.key j "sim_digest";
      J.str j (Printf.sprintf "%016x" d_untraced);
      J.key j "metrics";
      metrics_json j metrics;
      J.obj_close j)
    Workloads.names;
  J.obj_close j;
  write_file out j;
  if not !ok then exit 1

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n\
    \       main.exe --smoke [--out FILE]\n\
     workloads: table1_steady crash_campaign recovery_scale service_crash";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref false and out = ref None and smoke_mode = ref false in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_int (int_of s);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--smoke" :: rest ->
        smoke_mode := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!smoke_mode, !workload) with
  | true, None -> smoke ~out:(Option.value !out ~default:".benchmark/smoke.json")
  | false, Some name when List.mem name Workloads.names ->
      let out = Option.value !out ~default:(Printf.sprintf ".benchmark/%s.json" name) in
      run_workload name ~seed:!seed ~seconds:!seconds ~trace:!trace ~out
  | _ -> usage ()
