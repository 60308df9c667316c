(* Adversarial crash fidelity: graceful degraded recovery over the whole
   fault-model spectrum, recovery idempotence (including a crash in the
   middle of recovery itself), and the campaign machinery's violation
   judgement and shrinking. *)

open Helpers
module FM = Nvm.Fault_model
module Mode = Atlas.Mode
module Rt = Atlas.Runtime
module Recovery = Atlas.Recovery
module Kind = Pheap.Kind
module Runner = Workload.Runner
module FI = Workload.Fault_injector

(* The `faults --smoke` configuration: a small counter workload on a
   32 KiB cache, so the footprint exceeds the cache and discard-class
   faults genuinely lose lines (on the stock 512 KiB cache everything
   stays resident and Full_discard reverts to a clean snapshot). *)
let small_config =
  {
    (Runner.smoke (Runner.calibrated_config Nvm.Config.desktop)) with
    Runner.variant = Runner.Mutex_map Mode.Log_only;
  }

(* --- Graceful degraded recovery: the runner must return a structured
   verdict for every model at every crash point, never raise. --- *)

let test_adversarial_models_never_raise () =
  List.iter
    (fun fault ->
      List.iter
        (fun crash_at ->
          let r =
            Runner.run
              {
                small_config with
                Runner.seed = 21;
                crash_at_step = Some crash_at;
                fault_model = Some fault;
              }
          in
          let c =
            match r.Runner.crash with
            | Some c -> c
            | None -> Alcotest.failf "%s: run did not crash" (FM.to_string fault)
          in
          match (c.Runner.recovery_verdict, fault) with
          | (Recovery.Clean | Recovery.Degraded _), _ -> ()
          | Recovery.Unrecoverable _, FM.Bit_rot _ -> ()
          | Recovery.Unrecoverable msg, _ ->
              Alcotest.failf "%s: unrecoverable (%s)" (FM.to_string fault) msg)
        [ 2_000; 9_000; 21_000 ])
    FM.reference

let test_full_rescue_is_tsp_crash () =
  (* Under Full_rescue the adversarial path must be indistinguishable
     from the paper's TSP crash: consistent and verdict-clean. *)
  let r =
    Runner.run
      {
        small_config with
        Runner.seed = 5;
        crash_at_step = Some 9_000;
        fault_model = Some FM.Full_rescue;
      }
  in
  Alcotest.(check bool) "consistent" true (Runner.consistent r);
  match r.Runner.crash with
  | Some c ->
      Alcotest.(check bool) "clean verdict" true
        (c.Runner.recovery_verdict = Recovery.Clean)
  | None -> Alcotest.fail "did not crash"

let test_nonblocking_prefix_under_full_rescue () =
  (* Section 4.1: the lock-free map needs no logging because a rescued
     crash preserves a prefix of the store order.  The recovery observer
     must still certify that under the Full_rescue fault model. *)
  let r =
    Runner.run
      {
        small_config with
        Runner.variant = Runner.Nonblocking_map;
        seed = 13;
        crash_at_step = Some 9_000;
        fault_model = Some FM.Full_rescue;
        journal = true;
      }
  in
  Alcotest.(check bool) "consistent" true (Runner.consistent r);
  match r.Runner.crash with
  | Some { Runner.observer = Some o; _ } ->
      Alcotest.(check bool) "prefix observed" true
        o.Tsp_core.Recovery_observer.prefix_ok
  | _ -> Alcotest.fail "expected a crash with an observer verdict"

(* --- Recovery idempotence on raw Atlas environments --- *)

let make_env ?(mode = Mode.Log_only) ?(threads = 2) () =
  let pmem = desktop_pmem ~region_mib:2 () in
  let size = (Pmem.config pmem).Config.region_size in
  let log_base = size - (256 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  let atlas =
    Rt.create ~mode ~heap ~log_base ~log_size:(256 * 1024)
      ~num_threads:threads ()
  in
  (pmem, heap, atlas, log_base)

(* Two threads of small locked transactions over a shared slot array,
   interrupted mid-flight. *)
let crashed_env ~crash_at () =
  let pmem, heap, atlas, log_base = make_env () in
  let slots = Heap.alloc heap ~kind:Kind.raw ~words:16 in
  for i = 0 to 15 do
    Heap.store_field heap slots i 0L
  done;
  Heap.set_root heap slots;
  Nvm.Pmem.persist_all pmem;
  let outcome =
    run_threads_s pmem ~crash_at_step:crash_at
      [
        (fun sched ->
          let ctx = Rt.thread_ctx atlas ~tid:0 in
          let m = Rt.make_mutex atlas sched in
          for i = 0 to 39 do
            Rt.with_lock atlas ctx m (fun () ->
                Rt.store_field atlas ctx slots (i mod 16)
                  (Int64.of_int (100 + i));
                Rt.store_field atlas ctx slots ((i + 1) mod 16)
                  (Int64.of_int (200 + i)))
          done);
        (fun sched ->
          let ctx = Rt.thread_ctx atlas ~tid:1 in
          let m = Rt.make_mutex atlas sched in
          for i = 0 to 39 do
            Rt.with_lock atlas ctx m (fun () ->
                Rt.store_field atlas ctx slots ((i + 8) mod 16)
                  (Int64.of_int (300 + i)))
          done);
      ]
  in
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected the run to crash");
  (pmem, log_base)

let recover_once pmem ~log_base =
  let heap = Heap.attach pmem ~base:0 ~size:log_base in
  let report = Recovery.run ~heap ~log_base () in
  (report, Pmem.durable_snapshot pmem)

let test_recovery_idempotent () =
  List.iter
    (fun fault ->
      let pmem, log_base = crashed_env ~crash_at:700 () in
      let rng =
        let r = Rng.create ~seed:3 in
        fun bound -> Rng.int r bound
      in
      ignore (Pmem.crash pmem ~fault ~rng () : Pmem.crash_damage);
      Pmem.recover pmem;
      match recover_once pmem ~log_base with
      | exception Heap.Corrupt _
        when (match fault with FM.Bit_rot _ -> true | _ -> false) ->
          (* bit rot may take out the heap header itself; the runner maps
             this to an Unrecoverable verdict *)
          ()
      | r1, s1 ->
          let r2, s2 = recover_once pmem ~log_base in
          Alcotest.(check bool)
            (FM.to_string fault ^ ": image fixed point")
            true (String.equal s1 s2);
          Alcotest.(check bool)
            (FM.to_string fault ^ ": verdict stable")
            true
            (r1.Recovery.verdict = r2.Recovery.verdict))
    FM.reference

exception Cut_short

let test_recovery_idempotent_across_recovery_crash () =
  (* Crash the machine again in the middle of recovery: the partial
     repair must not change what a subsequent complete recovery
     produces.  (Recovery never mutates the logs, so any prefix of its
     heap repairs is just another crash image for the next attempt.) *)
  let pmem, log_base = crashed_env ~crash_at:700 () in
  let rng =
    let r = Rng.create ~seed:11 in
    fun bound -> Rng.int r bound
  in
  ignore
    (Pmem.crash pmem ~fault:(FM.Torn_lines { prob = 0.4 }) ~rng ()
      : Pmem.crash_damage);
  Pmem.recover pmem;
  let steps = ref 0 in
  (* First attempt, cut short after a fixed number of costed steps. *)
  Pmem.set_step_hook pmem (fun ~cost:_ ->
      incr steps;
      if !steps = 120 then raise Cut_short);
  (match recover_once pmem ~log_base with
  | _ -> Alcotest.fail "recovery was expected to be cut short"
  | exception Cut_short -> ());
  Pmem.clear_step_hook pmem;
  (* The interrupted attempt's dirty repairs die in a second crash. *)
  ignore
    (Pmem.crash pmem ~fault:FM.Full_discard ~rng:(fun _ -> 0) ()
      : Pmem.crash_damage);
  Pmem.recover pmem;
  let r1, s1 = recover_once pmem ~log_base in
  let r2, s2 = recover_once pmem ~log_base in
  Alcotest.(check bool) "post-interruption recovery is a fixed point" true
    (String.equal s1 s2);
  Alcotest.(check bool) "verdict stable" true
    (r1.Recovery.verdict = r2.Recovery.verdict);
  match r1.Recovery.verdict with
  | Recovery.Unrecoverable m -> Alcotest.failf "unrecoverable: %s" m
  | _ -> ()

(* --- Campaign judgement and shrinking --- *)

let campaign_spec ?(fault_models = [ None ]) ?exhaustive ?(shrink = false) () =
  {
    (FI.default_spec small_config) with
    FI.runs = 4;
    min_step = 2_000;
    max_step = 20_000;
    fault_models;
    exhaustive;
    shrink;
  }

(* Substring containment, for asserting over generated reproducers. *)
let contains ~needle hay =
  let nh = String.length needle and hh = String.length hay in
  let rec go i = i + nh <= hh && (String.sub hay i nh = needle || go (i + 1)) in
  nh = 0 || go 0

let test_campaign_judges_discard_expected () =
  (* Full_discard on an unflushed variant loses lines: violations, but
     every one of them expected — the campaign must not flag them. *)
  let s =
    FI.run ~jobs:1
      (campaign_spec
         ~fault_models:[ Some FM.Full_discard ]
         ~exhaustive:{ FI.from_step = 40_000; window = 3; stride = 1 }
         ())
  in
  Alcotest.(check int) "three runs" 3 s.FI.total;
  Alcotest.(check bool) "violations found" true (s.FI.violations > 0);
  Alcotest.(check int) "all expected" 0 s.FI.unexpected_violations;
  List.iter
    (fun (o : FI.run_outcome) ->
      Alcotest.(check bool) "graceful" true o.FI.graceful;
      if o.FI.violation then begin
        Alcotest.(check bool) "repro names the model" true
          (contains ~needle:"--fault-model full-discard" o.FI.repro);
        Alcotest.(check bool) "repro pins the crash step" true
          (contains ~needle:(Printf.sprintf "--from %d" o.FI.crash_step)
             o.FI.repro)
      end)
    s.FI.outcomes

let test_campaign_adversarial_all_graceful () =
  let s =
    FI.run ~jobs:1
      (campaign_spec
         ~fault_models:(List.map Option.some FM.reference)
         ~exhaustive:{ FI.from_step = 40_000; window = 2; stride = 1 }
         ())
  in
  Alcotest.(check int) "5 models x 2 steps"
    (2 * List.length FM.reference)
    s.FI.total;
  List.iter
    (fun (o : FI.run_outcome) ->
      Alcotest.(check bool) "graceful" true o.FI.graceful)
    s.FI.outcomes;
  Alcotest.(check int) "per-model ledger rows" (List.length FM.reference)
    (List.length s.FI.per_model);
  Alcotest.(check int) "no unexpected violations" 0 s.FI.unexpected_violations

let test_campaign_shrinks_violation () =
  let s =
    FI.run ~jobs:1
      (campaign_spec
         ~fault_models:[ Some FM.Full_discard ]
         ~exhaustive:{ FI.from_step = 40_000; window = 1; stride = 1 }
         ~shrink:true ())
  in
  Alcotest.(check bool) "found a violation" true (s.FI.violations > 0);
  match s.FI.shrunk with
  | None -> Alcotest.fail "expected a shrunk reproducer"
  | Some sh ->
      Alcotest.(check bool) "crash step shrank" true
        (sh.FI.final_crash_step < 40_000);
      Alcotest.(check bool) "iterations shrank" true
        (sh.FI.final_iterations < small_config.Runner.iterations);
      (* The minimized triple must still violate. *)
      let o =
        FI.one
          {
            (campaign_spec ~fault_models:[ Some FM.Full_discard ] ()) with
            FI.base =
              {
                small_config with
                Runner.iterations = sh.FI.final_iterations;
              };
          }
          ~fault:(Some FM.Full_discard)
          ~seed:
            (match
               List.find_opt (fun (o : FI.run_outcome) -> o.FI.violation)
                 s.FI.outcomes
             with
            | Some o -> o.FI.seed
            | None -> 99)
          ~crash_step:sh.FI.final_crash_step
      in
      Alcotest.(check bool) "minimized repro still violates" true o.FI.violation

(* --- Damaged images under every recovery mode: the eager, parallel and
   incremental engines share one log-ring scan, one scanner per kind and
   one sweep planner, so on an image a fault model damaged they must
   reach the same judgement.  Each leg is a `faults --smoke` crash point
   (its 400 + 50k and 40000 + 40k grids) at which eager recovery comes
   back [Degraded]: torn log lines truncate rings (log-only), and bit rot
   dense enough to land on live data damages the heap (on this grid the
   reference 8 flips never reach the small heap inside the 64 MiB
   region, hence 4096).  The non-blocking map has no torn leg: after its
   persisted preload the counter workload allocates nothing, so torn
   lines only hit value words and recovery stays [Clean].  Reasons
   compare as multisets: the eager DFS and the streamed BFS reach
   unscannable objects in different orders. --- *)

let damaged_legs =
  let log_only = Runner.Mutex_map Mode.Log_only in
  let torn = FM.Torn_lines { prob = 0.5 } in
  let rot = FM.Bit_rot { flips = 4096 } in
  [
    (log_only, torn, 99, 500);
    (log_only, torn, 99, 1_600);
    (log_only, torn, 99, 40_000);
    (log_only, rot, 110, 500);
    (Runner.Nonblocking_map, rot, 107, 500);
    (Runner.Nonblocking_map, rot, 110, 1_000);
  ]

let test_recovery_modes_agree_on_damage () =
  List.iter
    (fun (variant, fault, seed, crash_step) ->
      let leg mode =
        let base = { small_config with Runner.variant; recovery_mode = mode } in
        let o =
          FI.one (FI.default_spec base) ~fault:(Some fault) ~seed ~crash_step
        in
        (* [one]'s own run, repeated for its recovered entries. *)
        let r =
          Runner.run
            {
              base with
              Runner.seed;
              crash_at_step = Some crash_step;
              fault_model = Some fault;
            }
        in
        let verdict, reasons =
          match o.FI.recovery_verdict with
          | Some Recovery.Clean -> ("clean", [])
          | Some (Recovery.Degraded rs) -> ("degraded", List.sort compare rs)
          | Some (Recovery.Unrecoverable m) -> ("unrecoverable", [ m ])
          | None -> ("none", [])
        in
        ( ( o.FI.violation,
            verdict,
            o.FI.gc_freed,
            o.FI.rolled_back,
            o.FI.cascaded ),
          reasons,
          List.sort compare r.Runner.entries )
      in
      let name =
        Fmt.str "%s %s seed %d step %d"
          (Runner.variant_to_string variant)
          (FM.to_string fault) seed crash_step
      in
      let ((judged, _, _) as eager) = leg Workload.Machine.Eager in
      let _, verdict, _, _, _ = judged in
      Alcotest.(check string) (name ^ ": eager degrades") "degraded" verdict;
      List.iter
        (fun mode ->
          Alcotest.(check bool)
            (Fmt.str "%s: %s = eager" name
               (Workload.Machine.recovery_mode_to_string mode))
            true
            (leg mode = eager))
        [ Workload.Machine.Parallel_gc 2; Workload.Machine.Incremental_gc ])
    damaged_legs

let suite =
  ( "faults",
    [
      slow_case "adversarial models: runner never raises"
        test_adversarial_models_never_raise;
      case "full rescue behaves as a TSP crash" test_full_rescue_is_tsp_crash;
      case "lock-free map keeps the 4.1 prefix property under full rescue"
        test_nonblocking_prefix_under_full_rescue;
      slow_case "recovery is idempotent for every fault model"
        test_recovery_idempotent;
      case "recovery idempotent across a crash during recovery"
        test_recovery_idempotent_across_recovery_crash;
      case "campaign: discard violations are expected, graceful"
        test_campaign_judges_discard_expected;
      case "campaign: whole spectrum graceful with per-model ledger"
        test_campaign_adversarial_all_graceful;
      slow_case "campaign: shrinker produces a smaller, still-failing repro"
        test_campaign_shrinks_violation;
      case "recovery modes agree on damaged images"
        test_recovery_modes_agree_on_damage;
    ] )
