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

(* The one-pass owned arrays are the per-shard filters of the key
   space, for every shard count the service is run at. *)
let test_serve_owned_keys () =
  List.iter
    (fun (shards, keys) ->
      let owned = Serve.owned_keys { Serve.smoke_config with shards; keys } in
      Alcotest.(check int) "one array per shard" shards (Array.length owned);
      Array.iteri
        (fun s got ->
          let want =
            List.init keys Workload.Key_space.h_key
            |> List.filter (fun k -> Arrival.route ~shards k = s)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%d shards, %d keys: shard %d" shards keys s)
            want (Array.to_list got))
        owned)
    (List.concat_map (fun shards -> [ (shards, shards); (shards, 5_000) ])
       (List.init 8 (fun i -> i + 1)))

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

(* [sample] reads its rank-1 bound from [create]; the formula that
   called [Float.pow 0.5 theta] on every draw is kept here and must
   agree draw for draw. *)
let test_zipf_matches_formula () =
  let zeta n theta =
    let acc = ref 0. in
    for i = 1 to n do
      acc := !acc +. (1. /. Float.pow (float_of_int i) theta)
    done;
    !acc
  in
  List.iter
    (fun (theta, n) ->
      let zetan = zeta n theta and zeta2 = zeta 2 theta in
      let alpha = 1. /. (1. -. theta) in
      let eta =
        (1. -. Float.pow (2. /. float_of_int n) (1. -. theta))
        /. (1. -. (zeta2 /. zetan))
      in
      let formula rng =
        let u = Rng.float rng 1.0 in
        let uz = u *. zetan in
        if uz < 1. then 0
        else if uz < 1. +. Float.pow 0.5 theta then 1
        else
          let r =
            int_of_float
              (float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.) alpha)
          in
          if r >= n then n - 1 else if r < 0 then 0 else r
      in
      let z = Ycsb.Zipf.create ~theta ~n () in
      let a = Rng.create ~seed:11 and b = Rng.create ~seed:11 in
      for i = 1 to 20_000 do
        let got = Ycsb.Zipf.sample z a and want = formula b in
        if got <> want then
          Alcotest.failf "theta %g, n %d, draw %d: rank %d, formula %d" theta
            n i got want
      done)
    [ (0., 16); (0.3, 2); (0.8, 4096); (0.99, 65_536) ]

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
      crash_step = None;
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
              (stats, [ { Check.Dl.key = 7; detail = "lost" } ]));
       ])

(* The victim's ledger under each degraded mode, pinned by value:
   served, shed, timed out, extra client attempts and phase-2 served.
   Shed mode sheds what arrived during the outage; queue mode serves it
   late, and a deadline shorter than the wait times some of it out at
   dequeue; a retry budget that outlasts the outage sheds nothing, and
   one that runs out before the restart times requests out after their
   last attempt, each counting [max_retries] extra attempts. *)
let test_serve_shed_and_retry () =
  let ledger mode =
    let v =
      (Serve.run ~jobs:2 { tiny_config with Serve.degraded = mode }).Serve.shards.(1)
    in
    [ v.Serve.served; v.Serve.shed; v.Serve.timed_out; v.Serve.retry_attempts;
      v.Serve.phase2_served ]
  in
  List.iter
    (fun (mode, expected) ->
      Alcotest.(check (list int)) (Degraded.to_string mode) expected (ledger mode))
    [
      (Degraded.Shed, [ 276; 9; 0; 0; 135 ]);
      (Degraded.default, [ 285; 0; 0; 0; 144 ]);
      (Degraded.Queue { deadline = 20_000 }, [ 277; 0; 8; 0; 136 ]);
      (Degraded.Retry { backoff = 50_000; max_retries = 8 }, [ 285; 0; 0; 12; 144 ]);
      (Degraded.Retry { backoff = 1; max_retries = 1 }, [ 276; 0; 9; 9; 135 ]);
    ]

(* A damaged image the heap audit passes can still break the victim's
   map: under eight bit flips this seed's recovered B-tree fails its own
   audit.  The victim comes back lost, its pending requests shed and
   the reason reported, instead of the run raising. *)
let test_serve_damaged_victim_lost () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let cfg =
    {
      Serve.smoke_config with
      Serve.variant = ok (Workload.Machine.variant_of_string "btree");
      fault_model = Some (ok (Nvm.Fault_model.of_string "bit-rot:8"));
      seed = 11;
    }
  in
  let victim = (Serve.run ~jobs:1 cfg).Serve.shards.(1) in
  Alcotest.(check string) "victim lost" "crashed+lost" victim.Serve.outcome;
  Alcotest.(check int) "every request served or shed" victim.Serve.requests
    (victim.Serve.served + victim.Serve.shed);
  Alcotest.(check bool) "pending requests shed" true (victim.Serve.shed > 0);
  let reason = "map read-back failed: btree audit" in
  match victim.Serve.recovery with
  | None -> Alcotest.fail "victim shard has no recovery report"
  | Some rr ->
      Alcotest.(check bool) "no DL verdict" true (rr.Serve.dl = None);
      Alcotest.(check bool) "DL note gives the reason" true
        (String.starts_with ~prefix:("skipped: " ^ reason) rr.Serve.dl_note);
      Alcotest.(check bool) "recovery errors carry the reason" true
        (List.exists (String.starts_with ~prefix:reason) rr.Serve.recovery_errors)

(* A crash shard whose requests run out before its crash step never
   crashes.  It must not pass as "ok": its row says the crash was
   missed, the report states the planned step and the steps it ran, and
   the run fails. *)
let test_serve_missed_crash () =
  let step = 100_000_000 in
  let r =
    Serve.run ~jobs:1 { tiny_config with Serve.crash_at_step = Some step }
  in
  let v = r.Serve.shards.(1) in
  Alcotest.(check string) "victim outcome" "crash-missed" v.Serve.outcome;
  Alcotest.(check (option int)) "planned crash step" (Some step)
    v.Serve.crash_step;
  Alcotest.(check bool) "nothing to recover" true (v.Serve.recovery = None);
  Alcotest.(check bool) "the run fails" true (Serve.failed r);
  Alcotest.(check bool) "the report states both steps" true
    (contains (Serve.render r)
       (Printf.sprintf
          "crash: shard 1 was to crash at step %d, but its run ended after \
           %d steps"
          step v.Serve.steps))

let test_serve_guards () =
  check_raises_invalid "0 shards" (fun () ->
      ignore (Serve.run { tiny_config with Serve.shards = 0 } : Serve.report));
  check_raises_invalid "crash shard out of range" (fun () ->
      ignore (Serve.run { tiny_config with Serve.crash_shard = Some 9 } : Serve.report));
  check_raises_invalid "0 windows" (fun () ->
      ignore (Serve.run { tiny_config with Serve.windows = 0 } : Serve.report));
  List.iter
    (fun (what, cfg) ->
      Alcotest.(check bool) what true (Result.is_error (Serve.validate cfg)))
    [
      ("zero arrival rate", { tiny_config with Serve.rate_per_mcycle = 0. });
      ("skew of 1.5", { tiny_config with Serve.theta = 1.5 });
      ("negative request count", { tiny_config with Serve.requests = -5 });
      ("no keys", { tiny_config with Serve.keys = 0 });
      ("crash step 0", { tiny_config with Serve.crash_at_step = Some 0 });
      ( "crash step without a crash shard",
        { tiny_config with Serve.crash_shard = None; crash_at_step = Some 5 } );
      ("no requests to crash under", { tiny_config with Serve.requests = 0 });
    ];
  Alcotest.(check bool) "the tiny config is valid" true
    (Result.is_ok (Serve.validate tiny_config))

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
      case "serve: one routing pass owns every key once" test_serve_owned_keys;
      case "zipf: theta=0 is uniform" test_zipf_theta_zero_uniform;
      test_zipf_rank_monotone;
      case "zipf: hoisted bound matches the formula" test_zipf_matches_formula;
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
      slow_case "serve: a damaged victim comes back lost"
        test_serve_damaged_victim_lost;
      case "serve: config guards" test_serve_guards;
      slow_case "serve: a missed crash fails the run" test_serve_missed_crash;
      case "sweeps: ycsb table reports p999" test_ycsb_table_p999;
    ] )
