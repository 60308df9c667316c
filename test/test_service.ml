(* The sharded KV service layer: open-loop arrival generation, the
   request router, degraded-mode policies, and the full crash-one-shard
   serve scenario with its determinism and isolation guarantees. *)

open Helpers
module Arrival = Service.Arrival
module Degraded = Service.Degraded
module Serve = Service.Serve
module Ycsb = Workload.Ycsb
module Rng = Sched.Sim_rng

let gen_stream ?(seed = 42) ?(rate = 200.) ?(theta = 0.8) ?(keys = 4096)
    ?(requests = 5000) () =
  Arrival.generate ~seed ~rate_per_mcycle:rate ~theta ~keys ~preset:Ycsb.B
    ~requests

(* --- Arrival generation --- *)

let test_arrival_deterministic () =
  let a = gen_stream () and b = gen_stream () in
  Alcotest.(check bool) "same seed, same times" true (a.Arrival.times = b.Arrival.times);
  Alcotest.(check bool) "same seed, same ranks" true (a.Arrival.ranks = b.Arrival.ranks);
  Alcotest.(check bool) "same seed, same ops" true (a.Arrival.ops = b.Arrival.ops);
  let c = gen_stream ~seed:43 () in
  Alcotest.(check bool) "different seed, different stream" false
    (a.Arrival.times = c.Arrival.times && a.Arrival.ranks = c.Arrival.ranks)

let test_arrival_nondecreasing () =
  let s = gen_stream () in
  let ok = ref true in
  for i = 1 to Array.length s.Arrival.times - 1 do
    if s.Arrival.times.(i) < s.Arrival.times.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "arrival times nondecreasing" true !ok;
  Alcotest.(check bool) "horizon past last arrival" true
    (Arrival.horizon s > s.Arrival.times.(Array.length s.Arrival.times - 1))

(* A Poisson stream at rate R must empirically arrive at ~R: with 20k
   requests the relative standard error is under 1%, so +-10% is a
   deterministic-seed-safe bound. *)
let test_arrival_rate () =
  let rate = 350. in
  let requests = 20_000 in
  let s = gen_stream ~rate ~requests () in
  let horizon = float_of_int (Arrival.horizon s) in
  let empirical = float_of_int requests /. horizon *. 1_000_000. in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.1f within 10%% of %.1f" empirical rate)
    true
    (Float.abs (empirical -. rate) /. rate < 0.10)

let test_arrival_guards () =
  check_raises_invalid "rate 0" (fun () ->
      ignore (gen_stream ~rate:0. () : Arrival.stream));
  check_raises_invalid "keys 0" (fun () ->
      ignore (gen_stream ~keys:0 () : Arrival.stream));
  check_raises_invalid "negative requests" (fun () ->
      ignore (gen_stream ~requests:(-1) () : Arrival.stream));
  check_raises_invalid "theta 1" (fun () ->
      ignore (gen_stream ~theta:1. () : Arrival.stream))

(* --- Router --- *)

let test_route () =
  let shards = 7 in
  let seen = Array.make shards 0 in
  for i = 0 to 9999 do
    let s = Arrival.route ~shards (Workload.Key_space.h_key i) in
    Alcotest.(check bool) "route in range" true (s >= 0 && s < shards);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun s n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns a fair share (%d)" s n)
        true
        (n > 10000 / shards / 2 && n < 10000 * 2 / shards))
    seen;
  Alcotest.(check int) "route is a pure function" (Arrival.route ~shards 12345)
    (Arrival.route ~shards 12345);
  check_raises_invalid "0 shards" (fun () ->
      ignore (Arrival.route ~shards:0 1 : int))

(* --- Zipf: theta = 0 uniform degenerate case (and the guard) --- *)

let test_zipf_theta_zero_uniform () =
  let n = 16 in
  let z = Ycsb.Zipf.create ~theta:0. ~n () in
  let rng = Rng.create ~seed:5 in
  let counts = Array.make n 0 in
  let draws = 16_000 in
  for _ = 1 to draws do
    let r = Ycsb.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let expected = draws / n in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d near uniform (%d vs %d)" i c expected)
        true
        (c > expected / 2 && c < expected * 2))
    counts;
  check_raises_invalid "theta = 1 rejected" (fun () ->
      ignore (Ycsb.Zipf.create ~theta:1.0 ~n:10 () : Ycsb.Zipf.t));
  check_raises_invalid "negative theta rejected" (fun () ->
      ignore (Ycsb.Zipf.create ~theta:(-0.1) ~n:10 () : Ycsb.Zipf.t))

(* Rank monotonicity: for any skew and seed, low ranks must be drawn at
   least as often as high ranks in aggregate — the head outweighs the
   tail, and rank 0 beats the last rank outright for real skews. *)
let test_zipf_rank_monotone =
  qcheck ~count:60 "zipf: head outweighs tail for any theta"
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.3 0.95))
    (fun (seed, theta) ->
      let n = 64 in
      let z = Ycsb.Zipf.create ~theta ~n () in
      let rng = Rng.create ~seed in
      let counts = Array.make n 0 in
      for _ = 1 to 4000 do
        let r = Ycsb.Zipf.sample z rng in
        counts.(r) <- counts.(r) + 1
      done;
      let quarter = n / 4 in
      let sum a b = Array.fold_left ( + ) 0 (Array.sub counts a (b - a)) in
      counts.(0) > counts.(n - 1)
      && sum 0 quarter >= sum (n - quarter) n)

(* --- Degraded-mode parsing --- *)

let test_degraded_of_string () =
  let ok s v =
    match Degraded.of_string s with
    | Ok got -> Alcotest.(check string) s (Degraded.to_string v) (Degraded.to_string got)
    | Error e -> Alcotest.failf "%s: unexpected error %s" s e
  in
  ok "shed" Degraded.Shed;
  ok "queue" (Degraded.Queue { deadline = Degraded.default_deadline });
  ok "queue:12345" (Degraded.Queue { deadline = 12345 });
  ok "retry"
    (Degraded.Retry
       { backoff = Degraded.default_backoff; max_retries = Degraded.default_max_retries });
  ok "retry:100:3" (Degraded.Retry { backoff = 100; max_retries = 3 });
  let err s =
    match Degraded.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected an error" s
    | Error _ -> ()
  in
  err "drop";
  err "queue:0";
  err "queue:xyz";
  err "retry:10:0:9"

(* --- The service --- *)

let tiny_config =
  {
    Serve.smoke_config with
    Serve.shards = 3;
    seed = 13;
    keys = 2048;
    requests = 900;
    rate_per_mcycle = 250.;
    crash_shard = Some 1;
    n_buckets = Some 512;
    windows = 6;
  }

let test_serve_deterministic () =
  let a = Serve.run ~jobs:1 tiny_config in
  let b = Serve.run ~jobs:3 tiny_config in
  let c = Serve.run ~jobs:3 tiny_config in
  Alcotest.(check string) "jobs-invariant report" (Serve.render a) (Serve.render b);
  Alcotest.(check string) "repeat-invariant report" (Serve.render b) (Serve.render c)

let shard_witness (s : Serve.shard_report) =
  ( s.Serve.served,
    s.Serve.shed,
    s.Serve.timed_out,
    s.Serve.steps,
    s.Serve.sim_cycles,
    s.Serve.elapsed_cycles,
    s.Serve.outcome )

(* The crash parameters never reach the untouched shards' cells, so a
   neighbour's crash must not change one bit of their simulation. *)
let test_serve_blast_radius () =
  let crash = Serve.run ~jobs:2 tiny_config in
  let quiet = Serve.run ~jobs:2 { tiny_config with Serve.crash_shard = None } in
  List.iter
    (fun s ->
      if Some s <> tiny_config.Serve.crash_shard then begin
        Alcotest.(check bool)
          (Printf.sprintf "shard %d byte-identical with/without neighbour crash" s)
          true
          (shard_witness crash.Serve.shards.(s) = shard_witness quiet.Serve.shards.(s))
      end)
    [ 0; 1; 2 ];
  Alcotest.(check string) "untouched shard outcome" "ok"
    crash.Serve.shards.(0).Serve.outcome;
  Alcotest.(check string) "victim recovered" "crashed+recovered"
    crash.Serve.shards.(1).Serve.outcome

let test_serve_recovery_and_ledger () =
  let r = Serve.run ~jobs:2 tiny_config in
  let victim = r.Serve.shards.(1) in
  (match victim.Serve.recovery with
  | None -> Alcotest.fail "victim shard has no recovery report"
  | Some rr ->
      Alcotest.(check bool) "t_down < t_up" true (rr.Serve.t_down < rr.Serve.t_up);
      Alcotest.(check bool) "recovery took cycles" true (rr.Serve.recovery_cycles > 0);
      (match rr.Serve.dl with
      | Some v ->
          Alcotest.(check bool) "recovered shard durably linearizable" true
            (Check.Dl.is_explained v)
      | None -> Alcotest.failf "DL check skipped: %s" rr.Serve.dl_note));
  (* the ledger accounts for every request exactly once *)
  let total f = Array.fold_left (fun a s -> a + f s) 0 r.Serve.shards in
  Alcotest.(check int) "every request accounted" tiny_config.Serve.requests
    (total (fun s -> s.Serve.served + s.Serve.shed + s.Serve.timed_out));
  Alcotest.(check int) "requests partitioned over shards"
    tiny_config.Serve.requests
    (total (fun s -> s.Serve.requests));
  let win_total =
    Array.fold_left (fun a w -> a + w.Serve.total) 0 r.Serve.windows
  in
  Alcotest.(check int) "availability windows cover every request"
    tiny_config.Serve.requests win_total;
  (* every phase of the latency table reports p999 *)
  Alcotest.(check bool) "latency rows present" true (r.Serve.latency <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d %s: p50 <= p99 <= p999" l.Serve.l_shard
           l.Serve.l_phase)
        true
        (l.Serve.p50 <= l.Serve.p99 && l.Serve.p99 <= l.Serve.p999))
    r.Serve.latency

(* A victim that recovers under a non-rescue fault model is outside the
   strict checker's envelope: no DL verdict, and the note carries the
   envelope's own reason. *)
let test_serve_dl_skipped_outside_envelope () =
  let fm = Nvm.Fault_model.Full_discard in
  let cfg = { tiny_config with Serve.fault_model = Some fm } in
  let victim = (Serve.run ~jobs:1 cfg).Serve.shards.(1) in
  Alcotest.(check string) "victim recovered" "crashed+recovered"
    victim.Serve.outcome;
  let reason =
    match
      Workload.Check_campaign.dl_envelope
        ~hardware:Workload.Runner.default_config.Workload.Runner.hardware
        ~failure:Workload.Runner.default_config.Workload.Runner.failure
        (Some fm)
    with
    | Ok () -> Alcotest.fail "full-discard inside the strict envelope"
    | Error reason -> reason
  in
  match victim.Serve.recovery with
  | None -> Alcotest.fail "victim shard has no recovery report"
  | Some rr ->
      Alcotest.(check bool) "no DL verdict" true (rr.Serve.dl = None);
      Alcotest.(check string) "note names the envelope's reason"
        ("skipped: " ^ reason) rr.Serve.dl_note

(* The exit rule on hand-built reports: a deadlocked shard fails, a lost
   shard fails only when the model its crash ran promises no loss, and a
   recovered state the DL check flags fails. *)
let test_serve_exit_rule () =
  let module FM = Nvm.Fault_model in
  let recovery fault dl =
    {
      Serve.t_down = 10;
      t_up = 20;
      recovery_cycles = 10;
      rescued_lines = 0;
      fault;
      background_gc_cycles = 0;
      on_demand_recovered = 0;
      recovery_verdict = Atlas.Recovery.Clean;
      dl;
      dl_note = "";
      recovery_errors = [];
    }
  in
  let shard outcome recovery =
    {
      Serve.shard = 0;
      requests = 1;
      populated = 1;
      served = 1;
      shed = 0;
      timed_out = 0;
      retry_attempts = 0;
      phase2_served = 0;
      sim_cycles = 30;
      elapsed_cycles = 30;
      steps = 3;
      outcome;
      recovery;
      tracer = None;
    }
  in
  let failed shards =
    Serve.failed
      {
        Serve.config = tiny_config;
        horizon = 30;
        shards = Array.of_list shards;
        fates = [||];
        latencies = [||];
        windows = [||];
        latency = [];
      }
  in
  let ok = shard "ok" None in
  let lost fault = shard "crashed+lost" (Some (recovery fault None)) in
  let stats =
    { Check.Dl.ops = 1; completed = 1; pending = 0; keys = 1; capped = 0 }
  in
  let recovered dl =
    shard "crashed+recovered" (Some (recovery FM.Full_rescue (Some dl)))
  in
  Alcotest.(check bool) "healthy shards pass" false
    (failed [ ok; recovered (Check.Dl.Explained stats) ]);
  Alcotest.(check bool) "a deadlocked shard fails" true
    (failed [ ok; shard "deadlocked" None ]);
  Alcotest.(check bool) "loss under full-discard is tolerated" false
    (failed [ ok; lost FM.Full_discard ]);
  List.iter
    (fun fm ->
      if FM.adversarial fm then
        Alcotest.(check bool)
          ("loss under " ^ FM.to_string fm ^ " is tolerated")
          false
          (failed [ ok; lost fm ]))
    FM.reference;
  Alcotest.(check bool) "loss under full-rescue fails" true
    (failed [ ok; lost FM.Full_rescue ]);
  Alcotest.(check bool) "a DL violation fails" true
    (failed
       [
         ok;
         recovered
           (Check.Dl.Violation
              (stats, [ { Check.Dl.key = 7; found = None; detail = "lost" } ]));
       ])

let test_serve_shed_and_retry () =
  let run mode = Serve.run ~jobs:2 { tiny_config with Serve.degraded = mode } in
  let shed = run Degraded.Shed in
  let v = shed.Serve.shards.(1) in
  Alcotest.(check bool) "shed mode sheds the outage window" true (v.Serve.shed > 0);
  Alcotest.(check int) "shed mode never times out" 0 v.Serve.timed_out;
  let retry = run (Degraded.Retry { backoff = 50_000; max_retries = 8 }) in
  let v = retry.Serve.shards.(1) in
  Alcotest.(check bool) "retry mode retries" true (v.Serve.retry_attempts > 0);
  Alcotest.(check int) "retry with ample budget sheds nothing" 0 v.Serve.shed;
  (* a hopeless retry budget must time requests out instead *)
  let starved = run (Degraded.Retry { backoff = 1; max_retries = 1 }) in
  let v = starved.Serve.shards.(1) in
  Alcotest.(check bool) "starved retry budget times out" true (v.Serve.timed_out > 0)

let test_serve_guards () =
  check_raises_invalid "0 shards" (fun () ->
      ignore (Serve.run { tiny_config with Serve.shards = 0 } : Serve.report));
  check_raises_invalid "crash shard out of range" (fun () ->
      ignore (Serve.run { tiny_config with Serve.crash_shard = Some 9 } : Serve.report));
  check_raises_invalid "0 windows" (fun () ->
      ignore (Serve.run { tiny_config with Serve.windows = 0 } : Serve.report))

(* --- p999 in the YCSB sweep table (satellite of this PR) --- *)

let test_ycsb_table_p999 () =
  let _, _, rows = Workload.Sweeps.ycsb_table ~iterations:25 ~records:128 ~jobs:1 Ycsb.B in
  List.iter
    (fun row ->
      Alcotest.(check int) "row carries p50, p95, p99 and p999" 6
        (List.length row))
    rows

let suite =
  ( "service",
    [
      case "arrival: deterministic per seed" test_arrival_deterministic;
      case "arrival: times nondecreasing" test_arrival_nondecreasing;
      case "arrival: empirical rate within 10%" test_arrival_rate;
      case "arrival: argument guards" test_arrival_guards;
      case "router: range, balance, purity" test_route;
      case "zipf: theta=0 is uniform" test_zipf_theta_zero_uniform;
      test_zipf_rank_monotone;
      case "degraded: parser round-trips" test_degraded_of_string;
      slow_case "serve: byte-identical across jobs and repeats"
        test_serve_deterministic;
      slow_case "serve: neighbour crash leaves other shards bit-identical"
        test_serve_blast_radius;
      slow_case "serve: recovery report, DL verdict, ledger accounting"
        test_serve_recovery_and_ledger;
      slow_case "serve: DL check skipped outside the rescue envelope"
        test_serve_dl_skipped_outside_envelope;
      case "serve: exit rule judges loss by the crash's model"
        test_serve_exit_rule;
      slow_case "serve: shed and retry degraded modes" test_serve_shed_and_retry;
      case "serve: config guards" test_serve_guards;
      case "sweeps: ycsb table reports p999" test_ycsb_table_p999;
    ] )
