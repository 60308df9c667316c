(* Tests for the durable-linearizability checker (lib/check) and the
   workload-layer fixes that rode along with it: nearest-rank
   percentiles, the Ivec latency/recording sink, recovery verdict
   formatting, and the fault-injector's verdict ledger. *)

open Helpers
module History = Check.History
module Dl = Check.Dl
module Ivec = Check.Ivec
module Map_intf = Tsp_maps.Map_intf
module Skiplist = Tsp_maps.Lockfree_skiplist
module Recovery = Atlas.Recovery
module Runner = Workload.Runner
module Report = Workload.Report
module FI = Workload.Fault_injector
module CC = Workload.Check_campaign

(* --- Report.percentiles: nearest-rank, Int.compare --- *)

let pcts samples qs = List.map snd (Report.percentiles samples qs)

let test_percentiles_small () =
  Alcotest.(check (list int))
    "n=1: every quantile is the sample" [ 42; 42; 42; 42 ]
    (pcts [| 42 |] [ 0.0; 0.5; 0.99; 1.0 ]);
  Alcotest.(check (list int))
    "n=2: median is the lower sample, p99/max the upper" [ 10; 10; 20; 20 ]
    (pcts [| 20; 10 |] [ 0.0; 0.5; 0.99; 1.0 ]);
  Alcotest.(check (list int)) "empty input" []
    (pcts [||] [ 0.5; 0.99 ])

let test_percentiles_fixture () =
  (* Ten samples, unsorted on purpose.  Nearest-rank p99 of ten samples
     is the 10th order statistic; the pre-fix truncating rank returned
     the 9th. *)
  let samples = [| 7; 1; 10; 3; 9; 2; 8; 4; 6; 5 |] in
  Alcotest.(check (list int))
    "p50/p90/p99/p100 of 1..10" [ 5; 9; 10; 10 ]
    (pcts samples [ 0.5; 0.9; 0.99; 1.0 ])

(* --- Ivec: behaviour and the zero-allocation contract --- *)

let test_ivec_basic () =
  let v = Ivec.create ~capacity:2 () in
  Alcotest.(check int) "empty" 0 (Ivec.length v);
  Ivec.push v 10;
  Ivec.push v 20;
  Ivec.push v 30 (* forces a doubling *);
  Alcotest.(check int) "length" 3 (Ivec.length v);
  Alcotest.(check bool) "grew" true (Ivec.capacity v >= 3);
  Alcotest.(check int) "get" 20 (Ivec.get v 1);
  Ivec.set v 1 99;
  Alcotest.(check int) "set" 99 (Ivec.get v 1);
  Alcotest.(check (array int)) "to_array" [| 10; 99; 30 |] (Ivec.to_array v);
  check_raises_invalid "get out of bounds" (fun () -> ignore (Ivec.get v 3));
  check_raises_invalid "set out of bounds" (fun () -> Ivec.set v 3 0);
  Ivec.clear v;
  Alcotest.(check int) "cleared" 0 (Ivec.length v);
  Alcotest.(check bool) "storage kept" true (Ivec.capacity v >= 3)

let test_ivec_no_alloc () =
  (* The recording path's contract: with sufficient preallocation, a
     push is a store plus a length bump — no minor-heap allocation.
     The slack admits the floats boxed by [Gc.minor_words] itself. *)
  let n = 100_000 in
  let v = Ivec.create ~capacity:n () in
  Ivec.push v 0;
  Ivec.clear v;
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    Ivec.push v i
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "pushes allocated %.0f minor words" dw)
    true (dw < 256.);
  Alcotest.(check int) "all recorded" n (Ivec.length v)

let test_runner_latency_recording () =
  (* The latency sampler (YCSB only) rides the same Ivec sink; make sure
     turning it on still yields samples the percentile fix can digest. *)
  let config =
    {
      (Runner.calibrated_config Nvm.Config.desktop) with
      Runner.variant = Runner.Mutex_map Atlas.Mode.Log_only;
      threads = 2;
      iterations = 50;
      workload = Runner.Ycsb { preset = Workload.Ycsb.A; records = 128 };
      n_buckets = 128;
      log_mib = 1;
    }
  in
  let r = Runner.run config in
  let n = Array.length r.Runner.latencies_cycles in
  Alcotest.(check bool) "samples recorded" true (n > 0);
  match Report.percentiles r.Runner.latencies_cycles [ 0.5; 0.99 ] with
  | [ (_, p50); (_, p99) ] ->
      Alcotest.(check bool) "p50 <= p99" true (p50 <= p99)
  | _ -> Alcotest.fail "expected two quantiles"

(* --- History: recording through the scheduler --- *)

let test_history_wrap () =
  let pmem = desktop_pmem ~region_mib:4 () in
  let size = (Pmem.config pmem).Config.region_size in
  let heap = Heap.create pmem ~base:0 ~size in
  let sl = Skiplist.create heap ~num_threads:1 ~seed:3 () in
  let sched = Scheduler.create ~seed:5 () in
  let h = History.create ~sched () in
  ignore
    (Scheduler.spawn sched (fun () ->
         let ops = History.wrap h (Skiplist.ops sl) in
         ops.Map_intf.set ~tid:0 ~key:1 ~value:5L;
         (match ops.Map_intf.get ~tid:0 ~key:1 with
         | Some 5L -> ()
         | _ -> Alcotest.fail "get after set");
         ops.Map_intf.incr ~tid:0 ~key:1 ~by:2L;
         ignore (ops.Map_intf.remove ~tid:0 ~key:1 : bool))
      : int);
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  (match
     Fun.protect
       ~finally:(fun () -> Pmem.clear_step_hook pmem)
       (fun () -> Scheduler.run sched)
   with
  | Scheduler.Completed -> ()
  | _ -> Alcotest.fail "run did not complete");
  Alcotest.(check int) "ops recorded" 4 (History.length h);
  Alcotest.(check int) "all completed" 4 (History.completed h);
  Alcotest.(check int) "none pending" 0 (History.pending h);
  let r0 = History.nth h 0 in
  Alcotest.(check bool) "set op" true (r0.History.op = History.Set);
  Alcotest.(check int64) "set arg" 5L r0.History.arg;
  Alcotest.(check bool) "response after invocation" true
    (r0.History.t1 > r0.History.t0);
  let r1 = History.nth h 1 in
  Alcotest.(check bool) "get hit" true r1.History.ok;
  Alcotest.(check int64) "get result" 5L r1.History.result;
  let r3 = History.nth h 3 in
  Alcotest.(check bool) "remove found the key" true r3.History.ok;
  Alcotest.(check bool) "invocation order" true
    (r1.History.t0 >= r0.History.t1)

(* --- Dl: the verdict core, on hand-built records --- *)

let rc ?(tid = 0) ?(ok = false) ?(result = 0L) op key arg t0 t1 =
  { History.op; key; arg; tid; t0; t1; ok; result }

let dl ?(initial = []) records recovered =
  Dl.check_records ~initial ~records ~recovered

let ok name v = Alcotest.(check bool) name true (Dl.is_explained v)
let bad name v = Alcotest.(check bool) name false (Dl.is_explained v)

let test_dl_completed_set () =
  let h = [ rc History.Set 1 5L 0 1 ] in
  ok "completed set survives" (dl h [ (1, 5L) ]);
  bad "completed set lost" (dl h []);
  bad "wrong value" (dl h [ (1, 4L) ])

let test_dl_pending_set () =
  let h = [ rc History.Set 1 5L 0 (-1) ] in
  ok "pending set dropped" (dl h []);
  ok "pending set applied" (dl h [ (1, 5L) ]);
  bad "neither" (dl h [ (1, 7L) ])

let test_dl_incrs () =
  let completed =
    [ rc History.Incr 1 1L 0 1; rc History.Incr 1 1L 2 3;
      rc History.Incr 1 1L 4 5 ]
  in
  let pending =
    [ rc History.Incr 1 1L 6 (-1); rc History.Incr 1 1L 7 (-1) ]
  in
  let h = completed @ pending in
  let initial = [ (1, 0L) ] in
  ok "all pending dropped" (dl ~initial h [ (1, 3L) ]);
  ok "one pending applied" (dl ~initial h [ (1, 4L) ]);
  ok "both pending applied" (dl ~initial h [ (1, 5L) ]);
  bad "a completed incr lost" (dl ~initial h [ (1, 2L) ]);
  bad "an incr invented" (dl ~initial h [ (1, 6L) ])

let test_dl_remove () =
  let set = rc History.Set 2 9L 0 1 in
  let completed_remove = rc ~ok:true History.Remove 2 0L 2 3 in
  let pending_remove = rc History.Remove 2 0L 2 (-1) in
  ok "completed remove erases" (dl [ set; completed_remove ] []);
  bad "completed remove ignored" (dl [ set; completed_remove ] [ (2, 9L) ]);
  ok "pending remove applied" (dl [ set; pending_remove ] []);
  ok "pending remove dropped" (dl [ set; pending_remove ] [ (2, 9L) ])

let test_dl_incr_on_absent () =
  let h = [ rc History.Incr 3 7L 0 (-1) ] in
  ok "pending incr-on-absent dropped" (dl h []);
  ok "pending incr-on-absent inserts its increment" (dl h [ (3, 7L) ]);
  bad "partial effect" (dl h [ (3, 1L) ])

let test_dl_sequence () =
  let h =
    List.init 5 (fun i ->
        rc History.Set 4 (Int64.of_int (i + 1)) (2 * i) ((2 * i) + 1))
  in
  ok "last completed set wins" (dl h [ (4, 5L) ]);
  bad "an earlier set is stale" (dl h [ (4, 4L) ])

let test_dl_overlap () =
  (* Two completed sets with overlapping response intervals: neither
     really-time-precedes the other, so either linearization order —
     hence either final value — is admissible. *)
  let h = [ rc ~tid:0 History.Set 5 1L 0 10; rc ~tid:1 History.Set 5 2L 5 15 ] in
  ok "first order" (dl h [ (5, 1L) ]);
  ok "second order" (dl h [ (5, 2L) ]);
  bad "neither value" (dl h [ (5, 3L) ])

let test_dl_frame () =
  ok "untouched initial key survives"
    (dl ~initial:[ (7, 42L) ] [] [ (7, 42L) ]);
  bad "untouched initial key lost" (dl ~initial:[ (7, 42L) ] [] []);
  bad "key from nowhere" (dl [] [ (9, 1L) ]);
  ok "gets do not constrain"
    (dl ~initial:[ (1, 4L) ]
       [ rc ~ok:true ~result:5L History.Get 1 0L 0 1 ]
       [ (1, 4L) ]);
  check_raises_invalid "duplicate initial key" (fun () ->
      ignore (dl ~initial:[ (1, 0L); (1, 1L) ] [] []))

(* Cross-validation against the sequential oracle: a fully sequential,
   all-completed history has exactly one admissible final state — the
   model's — and any perturbation of it must be flagged. *)
let test_dl_vs_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (triple (int_range 0 2) (int_range 0 4) (int_range 1 5)))
  in
  qcheck ~count:300 "dl agrees with the sequential model" gen (fun ops ->
      let apply m (opc, key, v) =
        match opc with
        | 0 -> Model.set m ~key ~value:(Int64.of_int v)
        | 1 -> Model.incr m ~key ~by:(Int64.of_int v)
        | _ -> fst (Model.remove m ~key)
      in
      let final = List.fold_left apply Model.empty ops in
      let records =
        List.mapi
          (fun i (opc, _, v) ->
            let op, arg =
              match opc with
              | 0 -> (History.Set, Int64.of_int v)
              | 1 -> (History.Incr, Int64.of_int v)
              | _ -> (History.Remove, 0L)
            in
            let (_, key, _) = List.nth ops i in
            rc op key arg (2 * i) ((2 * i) + 1))
          ops
      in
      let entries = Model.entries final in
      Dl.is_explained (dl records entries)
      && not (Dl.is_explained (dl records ((999, 123L) :: entries))))

(* The index-based check against [Reference_dl], the table-and-sort
   version it replaced, on random inputs: unsorted initial and
   recovered lists, overlapping or disjoint, keys in only one of them,
   untouched keys whose recovered value changed or vanished, completed
   and pending Set/Incr/Remove (now and then a burst of unequal pending
   increments past [Dl.subset_limit]), and Gets on written and unwritten
   keys.  The verdict, every stat and every violation must be equal. *)
let gen_dl_input =
  let open QCheck2.Gen in
  let value = map Int64.of_int (int_range 0 4) in
  let uniq l =
    List.rev
      (List.fold_left
         (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
         [] l)
  in
  let record =
    let* op = oneofl History.[ Set; Get; Incr; Remove ] in
    let* key = int_range 0 13 in
    let* by = oneof [ return 1L; map Int64.of_int (int_range 1 3) ] in
    let* t0 = int_range 0 30 in
    let* len = int_range (-3) 8 in
    let arg = match op with History.Set | History.Incr -> by | _ -> 0L in
    return (rc op key arg t0 (if len < 0 then -1 else t0 + len))
  in
  let burst =
    list_repeat (Dl.subset_limit + 2)
      (map (fun by -> rc History.Incr 0 (Int64.of_int by) 0 (-1)) (int_range 1 3))
  in
  let* initial = map uniq (list_size (int_range 0 10) (pair (int_range 0 11) value)) in
  let* kept =
    flatten_l
      (List.map
         (fun (k, v) ->
           map
             (function
               | 0 | 1 -> Some (k, v) | 2 -> Some (k, Int64.succ v) | _ -> None)
             (int_range 0 3))
         initial)
  in
  let* extra = list_size (int_range 0 4) (pair (int_range 0 15) value) in
  let* recovered = shuffle_l (uniq (List.filter_map Fun.id kept @ extra)) in
  let* initial = shuffle_l initial in
  let* records = list_size (int_range 0 14) record in
  let* burst = frequency [ (9, return []); (1, burst) ] in
  let* records = shuffle_l (records @ burst) in
  return (initial, records, recovered)

let test_dl_vs_reference =
  let stats (s : Dl.stats) = (s.ops, s.completed, s.pending, s.keys, s.capped) in
  let ref_stats (s : Reference_dl.stats) =
    (s.ops, s.completed, s.pending, s.keys, s.capped)
  in
  let viols = List.map (fun (v : Dl.violation) -> (v.key, v.detail)) in
  let ref_viols = List.map (fun (v : Reference_dl.violation) -> (v.key, v.detail)) in
  let agrees reference verdict =
    match (reference, verdict) with
    | Reference_dl.Explained a, Dl.Explained b -> ref_stats a = stats b
    | Reference_dl.Violation (a, va), Dl.Violation (b, vb) ->
        ref_stats a = stats b && ref_viols va = viols vb
    | _ -> false
  in
  (* Both entry points: the list form, and the initial contents by
     position that [Serve] passes. *)
  qcheck ~count:1000 "dl matches the table-and-sort reference" gen_dl_input
    (fun (initial, records, recovered) ->
      let reference = Reference_dl.check_records ~initial ~records ~recovered in
      let ini = Array.of_list initial in
      agrees reference (Dl.check_records ~initial ~records ~recovered)
      && agrees reference
           (Dl.check_keys ~keys:(Array.map fst ini)
              ~value:(fun i -> snd ini.(i))
              ~same:(fun i v -> Int64.equal (snd ini.(i)) v)
              ~records ~recovered))

(* A key the recovered dump lists twice is a violation naming that key,
   counted once among the keys; the table-and-sort version raised. *)
let test_dl_recovered_duplicate () =
  let initial = [ (1, 0L) ] and records = [ rc History.Set 2 5L 0 1 ] in
  let recovered = [ (1, 0L); (2, 5L); (1, 3L); (1, 4L) ] in
  check_raises_invalid "the reference raises" (fun () ->
      ignore (Reference_dl.check_records ~initial ~records ~recovered));
  match Dl.check_records ~initial ~records ~recovered with
  | Dl.Violation (s, [ v ]) ->
      Alcotest.(check int) "the key" 1 v.Dl.key;
      Alcotest.(check string) "detail"
        "recovered more than once (0, then 3); a map holds each key once"
        v.Dl.detail;
      Alcotest.(check int) "keys counted once" 2 s.Dl.keys
  | v -> Alcotest.failf "expected one violation, got %a" Dl.pp_verdict v

(* --- Recovery verdict formatting --- *)

let test_orphan_warning () =
  Alcotest.(check (option string))
    "no orphans, no warning" None
    (Recovery.orphan_warning ~tid:3 ~orphans:0);
  Alcotest.(check (option string))
    "singular"
    (Some "thread 3 log truncated (1 orphaned entry)")
    (Recovery.orphan_warning ~tid:3 ~orphans:1);
  Alcotest.(check (option string))
    "plural"
    (Some "thread 0 log truncated (7 orphaned entries)")
    (Recovery.orphan_warning ~tid:0 ~orphans:7)

let test_pp_verdict () =
  Alcotest.(check string) "clean" "clean"
    (Fmt.str "%a" Recovery.pp_verdict Recovery.Clean);
  Alcotest.(check string) "degraded"
    "degraded (thread 3 log truncated (1 orphaned entry); skipped 2 updates)"
    (Fmt.str "%a"
       (Fmt.hbox Recovery.pp_verdict)
       (Recovery.Degraded
          [ Option.get (Recovery.orphan_warning ~tid:3 ~orphans:1);
            "skipped 2 updates" ]));
  Alcotest.(check string) "unrecoverable"
    "UNRECOVERABLE: log region header failed validation"
    (Fmt.str "%a" Recovery.pp_verdict
       (Recovery.Unrecoverable "log region header failed validation"))

(* --- Fault_injector.tally: the verdict ledger --- *)

let outcome ?(fault = None) ?(violation = false) ?(expected = false)
    ?recovery_verdict () =
  {
    FI.seed = 1;
    crash_step = 100;
    fault;
    crashed = true;
    consistent = not violation;
    graceful = true;
    recovery_verdict;
    violation;
    expected;
    repro = "tsp faults --runs 1";
    iterations_done = 10;
    invariants = { Workload.Invariant.ok = true; checks = [] };
    observer_prefix_ok = None;
    rolled_back = 0;
    cascaded = 0;
    gc_freed = 0;
    errors = [];
    cycle_totals = Array.make (Array.length Nvm.Stats.cycle_category_names) 0;
  }

let test_tally () =
  let outcomes =
    [
      outcome ~recovery_verdict:Recovery.Clean ();
      outcome ~recovery_verdict:(Recovery.Degraded [ "torn tail" ]) ();
      outcome
        ~recovery_verdict:(Recovery.Unrecoverable "header torn")
        ~violation:true ();
      (* Different model: must not be counted under [None]. *)
      outcome ~fault:(Some Nvm.Fault_model.Full_rescue)
        ~recovery_verdict:Recovery.Clean ();
    ]
  in
  let t = FI.tally ~model:None outcomes in
  Alcotest.(check int) "runs" 3 t.FI.m_runs;
  Alcotest.(check int) "crashes" 3 t.FI.m_crashes;
  Alcotest.(check int) "consistent" 2 t.FI.m_consistent;
  Alcotest.(check int) "clean" 1 t.FI.m_clean;
  Alcotest.(check int) "degraded" 1 t.FI.m_degraded;
  Alcotest.(check int) "unrecoverable" 1 t.FI.m_unrecoverable;
  Alcotest.(check int) "violations" 1 t.FI.m_violations;
  Alcotest.(check int) "unexpected" 1 t.FI.m_unexpected

let test_tally_ledger_renders () =
  let outcomes =
    [
      outcome ~recovery_verdict:Recovery.Clean ();
      outcome
        ~recovery_verdict:(Recovery.Unrecoverable "header torn")
        ~violation:true ();
    ]
  in
  let spec = FI.default_spec (Runner.calibrated_config Nvm.Config.desktop) in
  let summary =
    {
      FI.spec;
      outcomes;
      total = 2;
      crashes = 2;
      consistent_recoveries = 1;
      violations = 1;
      unexpected_violations = 1;
      per_model = [ FI.tally ~model:None outcomes ];
      shrunk = None;
    }
  in
  let s = Fmt.str "%a" FI.pp_summary summary in
  Alcotest.(check bool)
    "ledger row shows the unrecoverable bucket" true
    (contains s "clean/degraded/unrecoverable 1/0/1");
  Alcotest.(check bool) "violation line carries the repro" true
    (contains s "tsp faults --runs 1")

(* --- Check_campaign: end-to-end over the real simulator --- *)

let smoke_base variant =
  {
    (Runner.calibrated_config
       { Nvm.Config.desktop with Nvm.Config.cache_lines = 512 })
    with
    Runner.variant;
    workload = Runner.Counters { h_keys = 64; preload = true };
    threads = 2;
    iterations = 120;
    n_buckets = 128;
    log_mib = 1;
  }

let campaign_spec ?mutate ?(mutate_label = "") variant ~from_step ~window
    ~stride =
  {
    (CC.default_spec (smoke_base variant)) with
    CC.from_step;
    window;
    stride;
    mutate;
    mutate_label;
  }

let test_campaign_clean_skiplist () =
  let s =
    CC.run ~jobs:1
      (campaign_spec Runner.Nonblocking_map ~from_step:600 ~window:600
         ~stride:200)
  in
  Alcotest.(check int) "points" 3 s.CC.total;
  Alcotest.(check bool)
    (Fmt.str "clean, got %a" CC.pp_summary s)
    true (CC.clean s)

let test_campaign_clean_hashmap () =
  let s =
    CC.run ~jobs:1
      (campaign_spec (Runner.Mutex_map Atlas.Mode.Log_only) ~from_step:600
         ~window:600 ~stride:300)
  in
  Alcotest.(check bool)
    (Fmt.str "clean, got %a" CC.pp_summary s)
    true (CC.clean s)

let test_campaign_mutant_flagged () =
  (* The planted non-durable variant: writes acknowledged to the caller
     (and hence completed in the history) are silently never issued.
     The checker must notice on at least one enumerated crash point. *)
  let s =
    CC.run ~jobs:1
      (campaign_spec
         ~mutate:(CC.non_durable ~seed:11 ~every:3)
         ~mutate_label:"non-durable, drops ~1/3 writes"
         Runner.Nonblocking_map ~from_step:600 ~window:600 ~stride:300)
  in
  Alcotest.(check bool) "mutant flagged" true (s.CC.flagged >= 1)

let test_campaign_jobs_deterministic () =
  let spec =
    campaign_spec Runner.Nonblocking_map ~from_step:600 ~window:400
      ~stride:200
  in
  let render s = Fmt.str "%a" CC.pp_summary s in
  Alcotest.(check string) "summaries byte-identical for jobs 1 vs 4"
    (render (CC.run ~jobs:1 spec))
    (render (CC.run ~jobs:4 spec))

let test_campaign_rejects_unsound () =
  check_raises_invalid "adversarial fault model rejected" (fun () ->
      let base =
        {
          (smoke_base Runner.Nonblocking_map) with
          Runner.fault_model = Some (Nvm.Fault_model.Torn_lines { prob = 0.5 });
        }
      in
      ignore (CC.run ~jobs:1 (CC.default_spec base)));
  check_raises_invalid "non-TSP verdict rejected" (fun () ->
      let base =
        {
          (smoke_base (Runner.Mutex_map Atlas.Mode.Log_only)) with
          Runner.hardware = Tsp_core.Hardware.conventional_server;
          failure = Tsp_core.Failure_class.Power_outage;
        }
      in
      ignore (CC.run ~jobs:1 (CC.default_spec base)))

(* The baseline is what the run stored, populate_objects ballast
   included: a populated campaign is clean on every design the smoke
   checks, and a planted mutant is still caught, on workload keys only
   (the ballast-only keys start at h_key 64). *)
let test_campaign_populate_clean () =
  let spec ?mutate variant =
    {
      (CC.default_spec
         { (smoke_base variant) with Runner.populate_objects = 300 })
      with
      CC.from_step = 600;
      window = 400;
      stride = 200;
      mutate;
    }
  in
  List.iter
    (fun variant ->
      let s = CC.run ~jobs:1 (spec variant) in
      Alcotest.(check int) "both points crash" 2 s.CC.crashes;
      Alcotest.(check bool)
        (Fmt.str "clean, got %a" CC.pp_summary s)
        true (CC.clean s))
    [
      Runner.Nonblocking_map;
      Runner.Mutex_map Atlas.Mode.Log_only;
      Runner.Nvtraverse_map;
      Runner.Delayfree_map;
    ];
  let s =
    CC.run ~jobs:1
      (spec ~mutate:(CC.non_durable ~seed:11 ~every:3) Runner.Nonblocking_map)
  in
  Alcotest.(check bool) "mutant flagged" true (s.CC.flagged >= 1);
  List.iter
    (fun p ->
      match p.CC.dl with
      | Dl.Violation (_, keys) ->
          List.iter
            (fun k ->
              Alcotest.(check bool)
                (Fmt.str "flagged key %d is a workload key" k.Dl.key)
                true
                (k.Dl.key < Workload.Key_space.h_key 64))
            keys
      | Dl.Explained _ -> ())
    s.CC.points

let suite =
  ( "checker",
    [
      case "percentiles/small" test_percentiles_small;
      case "percentiles/fixture" test_percentiles_fixture;
      case "ivec/basic" test_ivec_basic;
      case "ivec/no-alloc" test_ivec_no_alloc;
      case "runner/latency-recording" test_runner_latency_recording;
      case "history/wrap" test_history_wrap;
      case "dl/completed-set" test_dl_completed_set;
      case "dl/pending-set" test_dl_pending_set;
      case "dl/incrs" test_dl_incrs;
      case "dl/remove" test_dl_remove;
      case "dl/incr-on-absent" test_dl_incr_on_absent;
      case "dl/sequence" test_dl_sequence;
      case "dl/overlap" test_dl_overlap;
      case "dl/frame" test_dl_frame;
      test_dl_vs_model;
      test_dl_vs_reference;
      case "dl/recovered-duplicate" test_dl_recovered_duplicate;
      case "recovery/orphan-warning" test_orphan_warning;
      case "recovery/pp-verdict" test_pp_verdict;
      case "faults/tally" test_tally;
      case "faults/tally-ledger" test_tally_ledger_renders;
      slow_case "campaign/clean-skiplist" test_campaign_clean_skiplist;
      slow_case "campaign/clean-hashmap" test_campaign_clean_hashmap;
      slow_case "campaign/mutant-flagged" test_campaign_mutant_flagged;
      slow_case "campaign/jobs-deterministic" test_campaign_jobs_deterministic;
      case "campaign/rejects-unsound" test_campaign_rejects_unsound;
      slow_case "campaign/populate-clean" test_campaign_populate_clean;
    ] )
