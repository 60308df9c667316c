(* Tests for the TSP concept library: failure classes, hardware presets,
   the WSP energy model, the decision procedure (the executable form of
   Section 3), the crash-model resolver, the recovery observer and the
   crash executor. *)

open Helpers
module FC = Tsp_core.Failure_class
module HW = Tsp_core.Hardware
module Req = Tsp_core.Requirement
module Wsp = Tsp_core.Wsp
module Policy = Tsp_core.Policy
module Observer = Tsp_core.Recovery_observer

(* --- Failure_class --- *)

let test_fc_strings () =
  List.iter
    (fun fc ->
      match FC.of_string (FC.to_string fc) with
      | Ok fc' -> Alcotest.(check bool) "roundtrip" true (fc = fc')
      | Error e -> Alcotest.fail e)
    FC.all;
  Alcotest.(check bool) "aliases" true (FC.of_string "sigkill" = Ok FC.Process_crash)

let test_fc_severity_order () =
  Alcotest.(check bool) "process < kernel" true
    (FC.compare FC.Process_crash FC.Kernel_panic < 0);
  Alcotest.(check bool) "kernel < power" true
    (FC.compare FC.Kernel_panic FC.Power_outage < 0);
  Alcotest.(check (list int)) "severities distinct" [ 0; 1; 2 ]
    (List.map FC.severity FC.all)

(* --- Hardware --- *)

let test_hw_find () =
  List.iter
    (fun h ->
      match HW.of_string h.HW.name with
      | Ok h' -> Alcotest.(check string) "found" h.HW.name h'.HW.name
      | Error e -> Alcotest.failf "%s not found: %s" h.HW.name e)
    HW.all;
  Alcotest.(check bool) "unknown" true
    (Result.is_error (HW.of_string "nonesuch"))

let test_hw_presets_sane () =
  Alcotest.(check bool) "conventional has no standby energy" true
    (HW.conventional_server.HW.residual_energy_j = 0.);
  Alcotest.(check bool) "nvram memory tech" true
    (HW.nvram_machine.HW.memory = HW.Nvram);
  Alcotest.(check bool) "nvcache machine has nv caches" true
    HW.nvram_nvcache_machine.HW.nonvolatile_caches;
  Alcotest.(check bool) "ups server has ups" true HW.ups_server.HW.ups

(* --- Requirement --- *)

let test_requirement () =
  let r = Req.default in
  Alcotest.(check int) "tolerates all three" 3 (List.length r.Req.tolerated);
  Alcotest.(check bool) "fail-stop admits non-blocking" true
    (Req.mechanism r = `Non_blocking_suffices);
  let r2 = Req.make ~integrity:Req.Corrupting_sections [ FC.Process_crash ] in
  Alcotest.(check bool) "corruption needs rollback" true
    (Req.mechanism r2 = `Needs_rollback)

(* --- WSP --- *)

let test_wsp_stage_math () =
  let s =
    { Wsp.label = "x"; data_mb = 1000.; bandwidth_mb_s = 500.; power_w = 100.;
      budget_j = 250. }
  in
  let r = Wsp.run_stage s in
  Alcotest.(check bool) "time 2s" true (abs_float (r.Wsp.time_s -. 2.) < 1e-9);
  Alcotest.(check bool) "energy 200J" true
    (abs_float (r.Wsp.energy_j -. 200.) < 1e-9);
  Alcotest.(check bool) "feasible" true r.Wsp.feasible;
  let r2 = Wsp.run_stage { s with Wsp.budget_j = 100. } in
  Alcotest.(check bool) "infeasible on short budget" false r2.Wsp.feasible

let test_wsp_empty_stage () =
  let s =
    { Wsp.label = "none"; data_mb = 0.; bandwidth_mb_s = 1.; power_w = 100.;
      budget_j = 0. }
  in
  let r = Wsp.run_stage s in
  Alcotest.(check bool) "zero time" true (r.Wsp.time_s = 0.);
  Alcotest.(check bool) "feasible for free" true r.Wsp.feasible

let test_wsp_plan_shapes () =
  Alcotest.(check int) "dram machine: two stages" 2
    (List.length (Wsp.plan_for HW.wsp_machine));
  Alcotest.(check int) "nvram machine: one stage" 1
    (List.length (Wsp.plan_for HW.nvram_machine));
  Alcotest.(check int) "nv caches: nothing to do" 0
    (List.length (Wsp.plan_for HW.nvram_nvcache_machine))

let test_wsp_machine_succeeds () =
  let o = Wsp.of_hardware HW.wsp_machine in
  Alcotest.(check bool) "rescue fits" true o.Wsp.success;
  Alcotest.(check bool) "headroom > 1" true (Wsp.headroom o > 1.)

let test_wsp_conventional_fails () =
  let o = Wsp.of_hardware HW.conventional_server in
  Alcotest.(check bool) "no energy, no rescue" false o.Wsp.success

let test_wsp_headroom_empty_plan () =
  let o = Wsp.of_hardware HW.nvram_nvcache_machine in
  Alcotest.(check bool) "infinite headroom" true (Wsp.headroom o = infinity);
  Alcotest.(check bool) "trivially succeeds" true o.Wsp.success

(* --- Policy: the full Section 3 matrix, one expectation per cell --- *)

let is_tsp h fc = Policy.is_tsp (Policy.decide h fc)

let runtime_of h fc =
  match Policy.decide h fc with
  | Policy.Tsp _ -> Policy.No_runtime_action
  | Policy.Not_tsp { runtime; _ } -> runtime

let test_matrix_process_crash_always_tsp () =
  (* Appendix A: every POSIX platform gets process-crash TSP for free. *)
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (h.HW.name ^ ": process crash is TSP")
        true
        (is_tsp h FC.Process_crash))
    HW.all

let test_matrix_kernel_panic () =
  Alcotest.(check bool) "conventional: no panic TSP" false
    (is_tsp HW.conventional_server FC.Kernel_panic);
  Alcotest.(check bool) "hardened: panic TSP via flush+dump" true
    (is_tsp HW.panic_hardened_server FC.Kernel_panic);
  Alcotest.(check bool) "nvdimm: panic TSP" true
    (is_tsp HW.nvdimm_server FC.Kernel_panic);
  Alcotest.(check bool) "nvram: panic TSP" true
    (is_tsp HW.nvram_machine FC.Kernel_panic);
  Alcotest.(check bool) "conventional panic obligation is write-through" true
    (runtime_of HW.conventional_server FC.Kernel_panic
    = Policy.Write_through_to_storage)

let test_matrix_power_outage () =
  Alcotest.(check bool) "conventional: no outage TSP" false
    (is_tsp HW.conventional_server FC.Power_outage);
  Alcotest.(check bool) "ups: outage TSP" true
    (is_tsp HW.ups_server FC.Power_outage);
  Alcotest.(check bool) "wsp: outage TSP" true
    (is_tsp HW.wsp_machine FC.Power_outage);
  Alcotest.(check bool) "nvdimm: outage TSP" true
    (is_tsp HW.nvdimm_server FC.Power_outage);
  Alcotest.(check bool) "nvram: outage TSP" true
    (is_tsp HW.nvram_machine FC.Power_outage)

let test_matrix_nvram_without_energy () =
  (* NVRAM but not even enough standby energy to flush caches: stores
     must be flushed eagerly, but only to the NVM — not to storage. *)
  let h = { HW.nvram_machine with HW.residual_energy_j = 0. } in
  Alcotest.(check bool) "not TSP" false (is_tsp h FC.Power_outage);
  Alcotest.(check bool) "obligation is log flushing" true
    (runtime_of h FC.Power_outage = Policy.Flush_log_entries)

let test_matrix_nvcache_no_actions () =
  (match Policy.decide HW.nvram_nvcache_machine FC.Kernel_panic with
  | Policy.Tsp { actions = []; _ } -> ()
  | v -> Alcotest.failf "expected empty action list, got %a" Policy.pp_verdict v);
  match Policy.decide HW.nvram_nvcache_machine FC.Power_outage with
  | Policy.Tsp { actions = []; _ } -> ()
  | v -> Alcotest.failf "expected empty action list, got %a" Policy.pp_verdict v

let test_matrix_panic_without_handler_nvram () =
  let h = { HW.nvram_machine with HW.panic_flush_handler = false } in
  Alcotest.(check bool) "not TSP" false (is_tsp h FC.Kernel_panic);
  Alcotest.(check bool) "flush obligation suffices over NVRAM" true
    (runtime_of h FC.Kernel_panic = Policy.Flush_log_entries)

let test_weakest_obligation () =
  let ob h fcs = Policy.weakest_runtime_obligation h (Req.make fcs) in
  Alcotest.(check bool) "nvram tolerates all with no action" true
    (ob HW.nvram_machine FC.all = Policy.No_runtime_action);
  Alcotest.(check bool) "conventional, crash only: no action" true
    (ob HW.conventional_server [ FC.Process_crash ] = Policy.No_runtime_action);
  Alcotest.(check bool) "conventional, all: write-through" true
    (ob HW.conventional_server FC.all = Policy.Write_through_to_storage);
  let nvram_no_handler =
    { HW.nvram_machine with HW.panic_flush_handler = false }
  in
  Alcotest.(check bool) "mixed: strongest obligation wins" true
    (ob nvram_no_handler [ FC.Process_crash; FC.Kernel_panic ]
    = Policy.Flush_log_entries)

(* The resolver answers which model a crash runs: without an explicit
   model the verdict picks an endpoint, an explicit model wins, and the
   executor runs exactly the resolver's answer. *)
let test_crash_mode_mapping () =
  let module Exec = Tsp_core.Crash_executor in
  Alcotest.(check bool) "tsp -> rescue" true
    (Policy.crash_model ~hardware:HW.nvram_machine ~failure:FC.Power_outage
       None
    = FM.Full_rescue);
  Alcotest.(check bool) "non-tsp -> discard" true
    (Policy.crash_model ~hardware:HW.conventional_server
       ~failure:FC.Power_outage None
    = FM.Full_discard);
  List.iter
    (fun hardware ->
      List.iter
        (fun failure ->
          let name = hardware.HW.name ^ "/" ^ FC.to_string failure in
          let resolve = Policy.crash_model ~hardware ~failure in
          let endpoint =
            if Policy.is_tsp (Policy.decide hardware failure) then
              FM.Full_rescue
            else FM.Full_discard
          in
          Alcotest.(check bool) (name ^ ": the verdict picks") true
            (resolve None = endpoint);
          List.iter
            (fun fm ->
              Alcotest.(check bool) (name ^ ": an explicit model wins") true
                (resolve (Some fm) = fm))
            FM.reference;
          List.iter
            (fun fault ->
              let p = small_pmem () in
              Pmem.store p 0 1L;
              let e = Exec.execute ?fault p ~hardware ~failure in
              Alcotest.(check bool) (name ^ ": the executor runs it") true
                (e.Exec.fault = resolve fault))
            (None :: List.map Option.some FM.reference))
        FC.all)
    HW.all

let test_decision_matrix_covers_everything () =
  let m = Policy.decision_matrix () in
  Alcotest.(check int) "all platforms" (List.length HW.all) (List.length m);
  List.iter
    (fun (_, verdicts) ->
      Alcotest.(check int) "all failure classes" 3 (List.length verdicts))
    m

(* --- Recovery observer --- *)

let test_observer_rescue () =
  let p = small_pmem ~journal:true () in
  for i = 0 to 40 do
    Pmem.store p (i * 8) (Int64.of_int i)
  done;
  crash p FM.Full_rescue;
  let v = Observer.observe p in
  Alcotest.(check bool) "prefix ok" true v.Observer.prefix_ok;
  Alcotest.(check int) "no losses" 0 v.Observer.lost;
  Alcotest.(check int) "counts" 41 v.Observer.total_stores;
  Alcotest.(check int) "addresses" 41 v.Observer.distinct_addresses

let test_observer_discard () =
  let p = small_pmem ~journal:true () in
  Pmem.store p 0 1L;
  crash p FM.Full_discard;
  let v = Observer.observe p in
  Alcotest.(check bool) "prefix broken" false v.Observer.prefix_ok;
  Alcotest.(check int) "one lost" 1 v.Observer.lost

(* --- Crash executor --- *)

module Exec = Tsp_core.Crash_executor

let test_executor_tsp_bills_actions () =
  let p = small_pmem () in
  for i = 0 to 9 do
    Pmem.store p (i * 64) 1L
  done;
  let e = Exec.execute p ~hardware:HW.nvram_machine ~failure:FC.Kernel_panic in
  Alcotest.(check bool) "verdict tsp" true (Policy.is_tsp e.Exec.verdict);
  Alcotest.(check bool) "the plan flushes the caches" true
    (match e.Exec.verdict with
    | Policy.Tsp { actions; _ } -> List.mem Policy.Panic_flush_caches actions
    | Policy.Not_tsp _ -> false);
  Alcotest.(check int) "ten lines rescued" 10 e.Exec.damage.Pmem.rescued;
  Alcotest.(check int) "nothing dropped" 0 e.Exec.damage.Pmem.dropped

let test_executor_process_crash_is_free () =
  let p = small_pmem () in
  Pmem.store p 0 1L;
  let e =
    Exec.execute p ~hardware:HW.conventional_server ~failure:FC.Process_crash
  in
  Alcotest.(check int) "rescued anyway" 1 e.Exec.damage.Pmem.rescued;
  Alcotest.(check bool) "kernel persistence moves nothing at crash time" true
    (match e.Exec.verdict with
    | Policy.Tsp { actions = [ Policy.Rely_on_kernel_persistence ]; _ } -> true
    | Policy.Tsp _ | Policy.Not_tsp _ -> false)

let test_executor_no_tsp_drops () =
  let p = small_pmem () in
  Pmem.store p 0 1L;
  let e =
    Exec.execute p ~hardware:HW.conventional_server ~failure:FC.Power_outage
  in
  Alcotest.(check bool) "not tsp" false (Policy.is_tsp e.Exec.verdict);
  Alcotest.(check int) "line dropped" 1 e.Exec.damage.Pmem.dropped;
  Alcotest.(check int) "nothing rescued" 0 e.Exec.damage.Pmem.rescued

(* A joule budget whose line count overflows an int rescues every dirty
   line: the count saturates at [max_int] instead of wrapping. *)
let test_executor_huge_budget_rescues_all () =
  Alcotest.(check int) "line count saturates" max_int
    (Wsp.line_rescue_budget HW.conventional_server ~budget_j:1e30
       ~line_size:64);
  let p = small_pmem () in
  for i = 0 to 9 do
    Pmem.store p (i * 64) 1L
  done;
  let e =
    Exec.execute
      ~fault:(FM.Partial_rescue { energy_budget_j = 1e30 })
      p ~hardware:HW.conventional_server ~failure:FC.Power_outage
  in
  Alcotest.(check int) "every line rescued" 10 e.Exec.damage.Pmem.rescued;
  Alcotest.(check int) "nothing dropped" 0 e.Exec.damage.Pmem.dropped

(* --- Requirement -> obligation, and the crash it implies --- *)

let tsp_everywhere h req =
  List.for_all (fun (_, v) -> Policy.is_tsp v) (Policy.decide_requirement h req)

let test_plan_and_crash () =
  Alcotest.(check bool) "tsp everywhere on nvram" true
    (tsp_everywhere HW.nvram_machine Req.default);
  Alcotest.(check bool) "no obligation" true
    (Policy.weakest_runtime_obligation HW.nvram_machine Req.default
    = Policy.No_runtime_action);
  Alcotest.(check bool) "not everywhere on conventional" false
    (tsp_everywhere HW.conventional_server Req.default);
  (* The crash applies the right device semantics. *)
  let p = small_pmem ~journal:true () in
  Pmem.store p 0 5L;
  let e = Exec.execute p ~hardware:HW.nvram_machine ~failure:FC.Power_outage in
  Alcotest.(check bool) "verdict is tsp" true (Policy.is_tsp e.Exec.verdict);
  Alcotest.check int64 "value rescued" 5L (Pmem.load_durable p 0)

let test_crash_discard_via_facade () =
  let p = small_pmem ~journal:true () in
  Pmem.store p 0 5L;
  let e =
    Exec.execute p ~hardware:HW.conventional_server ~failure:FC.Power_outage
  in
  Alcotest.(check bool) "verdict not tsp" false (Policy.is_tsp e.Exec.verdict);
  Alcotest.check int64 "value lost" 0L (Pmem.load_durable p 0)

let suite =
  ( "core",
    [
      case "failure class: strings" test_fc_strings;
      case "failure class: severity order" test_fc_severity_order;
      case "hardware: find" test_hw_find;
      case "hardware: preset sanity" test_hw_presets_sane;
      case "requirement: mechanism selection" test_requirement;
      case "wsp: stage arithmetic" test_wsp_stage_math;
      case "wsp: empty stage" test_wsp_empty_stage;
      case "wsp: plan shapes per memory tech" test_wsp_plan_shapes;
      case "wsp: the WSP machine's rescue fits" test_wsp_machine_succeeds;
      case "wsp: conventional hardware cannot rescue"
        test_wsp_conventional_fails;
      case "wsp: empty plan semantics" test_wsp_headroom_empty_plan;
      case "policy: process crash is always TSP (Appendix A)"
        test_matrix_process_crash_always_tsp;
      case "policy: kernel panic column" test_matrix_kernel_panic;
      case "policy: power outage column" test_matrix_power_outage;
      case "policy: NVRAM without standby energy" test_matrix_nvram_without_energy;
      case "policy: nothing to do with NV caches" test_matrix_nvcache_no_actions;
      case "policy: NVRAM without a panic handler"
        test_matrix_panic_without_handler_nvram;
      case "policy: weakest runtime obligation" test_weakest_obligation;
      case "policy: crash mode mapping" test_crash_mode_mapping;
      case "policy: matrix covers platforms x failures"
        test_decision_matrix_covers_everything;
      case "executor: TSP actions billed and executed"
        test_executor_tsp_bills_actions;
      case "executor: process-crash rescue is free"
        test_executor_process_crash_is_free;
      case "executor: non-TSP crash drops lines" test_executor_no_tsp_drops;
      case "executor: a 1e30 J budget rescues every dirty line"
        test_executor_huge_budget_rescues_all;
      case "observer: rescue shows the full prefix" test_observer_rescue;
      case "observer: discard breaks the prefix" test_observer_discard;
      case "facade: plan and TSP crash" test_plan_and_crash;
      case "facade: non-TSP crash discards" test_crash_discard_via_facade;
    ] )
