module Heap = Pheap.Heap
module Heap_gc = Pheap.Heap_gc
module Rt = Atlas.Runtime
module Scheduler = Sched.Scheduler
module Rng = Sched.Sim_rng
module Hashmap = Tsp_maps.Chained_hashmap

include Run_config

let default_config =
  {
    platform = Nvm.Config.desktop;
    variant = Mutex_map Atlas.Mode.No_log;
    workload = Counters { h_keys = 65536; preload = true };
    threads = 8;
    iterations = 2000;
    seed = 1;
    crash_at_step = None;
    populate_objects = 0;
    recovery_mode = Eager;
    hardware = Tsp_core.Hardware.nvram_machine;
    failure = Tsp_core.Failure_class.Process_crash;
    fault_model = None;
    journal = false;
    n_buckets = 16384;
    log_mib = 8;
    atlas_costs = Rt.default_costs;
    cost_jitter = 3;
    iter_cycles = 40;
    hash_op_cycles = 30;
    skip_op_cycles = 25;
    instrument = None;
    tracer = None;
  }

(* Per-platform charges solved so the counter workload reproduces the
   absolute throughput of Table 1 (see EXPERIMENTS.md, "calibration").
   The qualitative shape — the ordering of the variants and the sign of
   every overhead — does not depend on these values; they only place the
   simulated machines at the paper's operating point. *)
let calibrated_config platform =
  let name = platform.Nvm.Config.name in
  let iter_cycles, costs, hash_op_cycles, skip_op_cycles =
    if String.equal name Nvm.Config.desktop.Nvm.Config.name then
      ( 3800,
        { Rt.lock_cycles = 450; unlock_cycles = 300; log_cycles = 310 },
        180,
        1250 )
    else if String.equal name Nvm.Config.server.Nvm.Config.name then
      ( 5700,
        { Rt.lock_cycles = 700; unlock_cycles = 450; log_cycles = 310 },
        180,
        925 )
    else
      ( default_config.iter_cycles,
        default_config.atlas_costs,
        default_config.hash_op_cycles,
        default_config.skip_op_cycles )
  in
  {
    default_config with
    platform;
    iter_cycles;
    atlas_costs = costs;
    hash_op_cycles;
    skip_op_cycles;
  }

let smoke_workload c =
  let workload = Counters { h_keys = 256; preload = true } in
  { c with workload; n_buckets = 512; log_mib = 1 }

let smoke ?(sized = true) c =
  let platform = { c.platform with Nvm.Config.cache_lines = 512 } in
  let c = smoke_workload { c with platform } in
  if sized then { c with threads = 4; iterations = 200 } else c

let smoke_mid_from = function Delayfree_map -> 18_000 | _ -> 40_000

type crash_report = {
  verdict : Tsp_core.Policy.verdict;
  observer : Tsp_core.Recovery_observer.verdict option;
  atlas_recovery : Atlas.Recovery.report option;
  gc : Pheap.Heap_gc.stats option;
  gc_quarantine : Pheap.Heap_gc.quarantine option;
  recovery_verdict : Atlas.Recovery.verdict;
  heap_audit_ok : bool;
  recovery_errors : string list;
  recovery_cycles : int;
  rescued_lines : int;
  rescue_bill : Tsp_core.Crash_executor.execution;
}

type outcome = Completed | Crashed of int | Deadlocked of string list

type result = {
  config : config;
  outcome : outcome;
  iterations_done : int;
  elapsed_cycles : int;
  miters_per_sec : float;
  invariants : Invariant.result;
  crash : crash_report option;
  entries : (int * int64) list;
  total_steps : int;
  device_stats : Nvm.Stats.t;
  latencies_cycles : int array;
      (* per-operation latency samples, empty unless the workload is YCSB *)
}

(* Map operations each workload iteration performs through the recorded
   operation interface; the denominator of the per-op psync rates. *)
let ops_per_iteration = function
  | Counters _ | Mixed _ -> 3
  | Ycsb _ | Wide _ | Transfers _ -> 1

let completed_ops r = r.iterations_done * ops_per_iteration r.config.workload

(* The wide-value and transfer bodies call the hash map's own
   multi-store operations ([set_wide], [transfer]). *)
let validate config =
  let needs_hash_map workload =
    match config.variant with
    | Mutex_map _ -> Ok ()
    | Mutex_btree _ | Nonblocking_map | Nvtraverse_map | Delayfree_map ->
        Fmt.error "the %s workload runs on the hash map only (%s)" workload
          (String.concat ", "
             (List.map
                (fun mode -> variant_to_cli_string (Mutex_map mode))
                Atlas.Mode.all))
  in
  match config.workload with
  | Counters _ | Mixed _ | Ycsb _ -> Ok ()
  | Wide _ -> needs_hash_map "wide-value"
  | Transfers _ -> needs_hash_map "transfer"

let iter_preload config f =
  let counters () =
    for tid = 0 to config.threads - 1 do
      f ~key:(Key_space.c1 ~tid) ~value:0L;
      f ~key:(Key_space.c2 ~tid) ~value:0L
    done
  in
  let h_range n value_of =
    for i = 0 to n - 1 do
      let k = Key_space.h_key i in
      f ~key:k ~value:(value_of k)
    done
  in
  match config.workload with
  | Counters { h_keys; preload = true } | Mixed { h_keys; _ } ->
      counters ();
      h_range h_keys (fun _ -> 0L)
  | Counters { h_keys = _; preload = false } -> counters ()
  | Wide { h_keys; _ } -> h_range h_keys (fun _ -> 0L)
  | Ycsb { records; _ } ->
      (* Records are self-describing: value congruent to key modulo the
         record count, an invariant every read-back can check. *)
      h_range records Int64.of_int
  | Transfers { accounts; initial_balance } ->
      let balance = Int64.of_int initial_balance in
      h_range accounts (fun _ -> balance)

let initial_entries config =
  let map = Hashtbl.create 1024 in
  let store ~key ~value = Hashtbl.replace map key value in
  if config.populate_objects > 0 then
    Array.iter
      (fun k -> store ~key:k ~value:(Int64.of_int k))
      (Populate.keys ~objects:config.populate_objects ~seed:config.seed);
  iter_preload config store;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) map []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let counter_body config pmem ops ~tid ~rng ~h_keys ~progress () =
  for i = 1 to config.iterations do
    Nvm.Pmem.charge pmem config.iter_cycles;
    ops.Tsp_maps.Map_intf.set ~tid ~key:(Key_space.c1 ~tid)
      ~value:(Int64.of_int i);
    let k = Key_space.h_key (Rng.int rng h_keys) in
    ops.Tsp_maps.Map_intf.incr ~tid ~key:k ~by:1L;
    ops.Tsp_maps.Map_intf.set ~tid ~key:(Key_space.c2 ~tid)
      ~value:(Int64.of_int i);
    progress.(tid) <- i
  done

(* Mixed read/write iterations: with probability [read_pct]% the
   iteration only reads (three gets), otherwise it is the usual 3-store
   iteration.  Reads are never logged, so fortification overhead shrinks
   as the read share grows — the E12 sweep quantifies it. *)
let mixed_body config pmem ops ~tid ~rng ~h_keys ~read_pct ~progress () =
  let write_i = ref 0 in
  for i = 1 to config.iterations do
    Nvm.Pmem.charge pmem config.iter_cycles;
    if Rng.int rng 100 < read_pct then begin
      ignore (ops.Tsp_maps.Map_intf.get ~tid ~key:(Key_space.c1 ~tid));
      ignore
        (ops.Tsp_maps.Map_intf.get ~tid
           ~key:(Key_space.h_key (Rng.int rng h_keys)));
      ignore (ops.Tsp_maps.Map_intf.get ~tid ~key:(Key_space.c2 ~tid))
    end
    else begin
      incr write_i;
      ops.Tsp_maps.Map_intf.set ~tid ~key:(Key_space.c1 ~tid)
        ~value:(Int64.of_int !write_i);
      ops.Tsp_maps.Map_intf.incr ~tid
        ~key:(Key_space.h_key (Rng.int rng h_keys))
        ~by:1L;
      ops.Tsp_maps.Map_intf.set ~tid ~key:(Key_space.c2 ~tid)
        ~value:(Int64.of_int !write_i)
    end;
    progress.(tid) <- i
  done

(* Wide-value iterations: overwrite every word of a random value with
   the same tag.  Torn values (words disagreeing) witness a non-atomic
   update — possible without rollback even under TSP (experiment E13). *)
let wide_body config pmem hm ~tid ~rng ~h_keys ~value_words ~progress () =
  for i = 1 to config.iterations do
    Nvm.Pmem.charge pmem config.iter_cycles;
    let k = Key_space.h_key (Rng.int rng h_keys) in
    let tag = Int64.of_int ((tid * 1_000_000) + i) in
    Hashmap.set_wide hm ~tid ~key:k ~values:(Array.make value_words tag);
    progress.(tid) <- i
  done

(* YCSB-style mixes over a pre-loaded, Zipfian-accessed record set.
   RMW adds [records] to the value, preserving the congruence invariant;
   updates rewrite the canonical value. *)
let ycsb_body config pmem ops ~tid ~rng ~preset ~records ~zipf ~latencies
    ~now ~progress () =
  for i = 1 to config.iterations do
    Nvm.Pmem.charge pmem config.iter_cycles;
    let t0 = now () in
    let k = Key_space.h_key (Ycsb.Zipf.sample zipf rng) in
    (match Ycsb.pick_op preset rng with
    | Ycsb.Read -> ignore (ops.Tsp_maps.Map_intf.get ~tid ~key:k)
    | Ycsb.Update -> ops.Tsp_maps.Map_intf.set ~tid ~key:k ~value:(Int64.of_int k)
    | Ycsb.Rmw ->
        ops.Tsp_maps.Map_intf.incr ~tid ~key:k ~by:(Int64.of_int records));
    Check.Ivec.push latencies (now () - t0);
    progress.(tid) <- i
  done

let transfer_body config pmem hm ~tid ~rng ~accounts ~progress () =
  for i = 1 to config.iterations do
    Nvm.Pmem.charge pmem config.iter_cycles;
    let a = Rng.int rng accounts in
    let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
    let amount = Int64.of_int (1 + Rng.int rng 10) in
    ignore
      (Hashmap.transfer hm ~tid ~debit:(Key_space.h_key a)
         ~credit:(Key_space.h_key b) ~amount
        : bool);
    progress.(tid) <- i
  done

let check_invariants config ?wide_entries entries =
  match config.workload with
  | Counters _ | Mixed _ -> Invariant.counters ~entries ~threads:config.threads
  | Wide _ ->
      Invariant.untorn ~wide_entries:(Option.value wide_entries ~default:[])
  | Ycsb { records; _ } -> Invariant.ycsb ~entries ~records
  | Transfers { accounts; initial_balance } ->
      Invariant.transfers ~entries
        ~expected_total:(Int64.of_int (accounts * initial_balance))

let crash_report_of pmem ~verdict ~(recovery : Machine.recovery) ~clock_before
    ~rescue_bill =
  {
    verdict;
    observer = recovery.Machine.observer;
    atlas_recovery = recovery.Machine.atlas_recovery;
    gc = recovery.Machine.gc;
    gc_quarantine = recovery.Machine.gc_quarantine;
    recovery_verdict = recovery.Machine.recovery_verdict;
    heap_audit_ok = recovery.Machine.heap_audit_ok;
    recovery_errors = recovery.Machine.recovery_errors;
    recovery_cycles = (Nvm.Pmem.stats pmem).Nvm.Stats.clock - clock_before;
    rescued_lines = (Nvm.Pmem.stats pmem).Nvm.Stats.rescued_lines;
    rescue_bill;
  }

let run_full config =
  Result.iter_error
    (fun why -> invalid_arg ("Runner: " ^ why))
    (validate config);
  let m =
    Machine.create
      (if config.populate_objects > 0 then
         Populate.sized_spec config ~objects:config.populate_objects
       else config)
  in
  let pmem = m.Machine.pmem in
  let sched = m.Machine.sched in
  let heap = m.Machine.heap in
  (* Interpose on the operation interface (history recorders, mutation
     harnesses).  [None] leaves the record untouched, so the default run
     is bit-identical to an uninstrumented build; the wrapped ops are
     only invoked from inside simulated threads.  [set_plain] population
     and recovery-time [fold_root] dumps bypass the wrapper. *)
  (match config.instrument with
  | None -> ()
  | Some wrap -> Machine.instrument m (wrap sched));
  let map = m.Machine.map in
  (* Scale ballast goes in first; the workload preload then overwrites
     its own keys, so workload invariants are untouched while recovery
     still has the full population to scan. *)
  if config.populate_objects > 0 then
    Populate.fill m ~objects:config.populate_objects ~seed:config.seed;
  iter_preload config map.Machine.set_plain;
  Nvm.Pmem.persist_all pmem;
  let progress = Array.make config.threads 0 in
  let zipf =
    lazy
      (match config.workload with
      | Ycsb { records; _ } -> Ycsb.Zipf.create ~n:records ()
      | Counters _ | Mixed _ | Wide _ | Transfers _ ->
          invalid_arg "zipf: not a YCSB workload")
  in
  (* The YCSB body, the only one that times its operations, records
     their latency samples into a preallocated flat int vector: one
     sample per iteration per thread, so sized exactly, the recording
     path allocates nothing and cannot perturb the zero-allocation hot
     path (regression in test/test_checker.ml). *)
  let latency_buf =
    Check.Ivec.create
      ~capacity:
        (match config.workload with
        | Ycsb _ -> max 1 (config.threads * config.iterations)
        | Counters _ | Mixed _ | Wide _ | Transfers _ -> 1)
      ()
  in
  let spawn_worker tid =
    let rng = Rng.create ~seed:(config.seed + (1000 * (tid + 1))) in
    let body =
      match config.workload with
      | Counters { h_keys; _ } ->
          counter_body config pmem map.Machine.map_ops ~tid ~rng ~h_keys
            ~progress
      | Mixed { h_keys; read_pct } ->
          mixed_body config pmem map.Machine.map_ops ~tid ~rng ~h_keys
            ~read_pct ~progress
      | Wide { h_keys; value_words } ->
          wide_body config pmem (Option.get map.Machine.hashmap) ~tid ~rng
            ~h_keys ~value_words ~progress
      | Ycsb { preset; records } ->
          let zipf = Lazy.force zipf in
          ycsb_body config pmem map.Machine.map_ops ~tid ~rng ~preset ~records
            ~zipf ~latencies:latency_buf
            ~now:(fun () -> Scheduler.thread_cycles sched tid)
            ~progress
      | Transfers { accounts; _ } ->
          transfer_body config pmem (Option.get map.Machine.hashmap) ~tid ~rng
            ~accounts ~progress
    in
    ignore (Scheduler.spawn sched ~name:(Printf.sprintf "worker-%d" tid) body : int)
  in
  for tid = 0 to config.threads - 1 do
    spawn_worker tid
  done;
  let sched_outcome = Machine.execute ?crash_at_step:config.crash_at_step m in
  let iterations_done = Array.fold_left ( + ) 0 progress in
  let elapsed_cycles = Scheduler.elapsed_cycles sched in
  let miters =
    Nvm.Cost_model.miter_per_sec config.platform ~iterations:iterations_done
      ~cycles:elapsed_cycles
  in
  let finish outcome invariants crash entries =
    {
      config;
      outcome;
      iterations_done;
      elapsed_cycles;
      miters_per_sec = miters;
      invariants;
      crash;
      entries;
      total_steps = Scheduler.total_steps sched;
      device_stats = Nvm.Pmem.stats pmem;
      latencies_cycles = Check.Ivec.to_array latency_buf;
    }
  in
  let wide_dump h root =
    match config.workload with
    | Wide _ ->
        Some (Hashmap.fold_wide_plain h ~root (fun k vs acc -> (k, vs) :: acc) [])
    | Counters _ | Mixed _ | Ycsb _ | Transfers _ -> None
  in
  match sched_outcome with
  | Scheduler.Completed ->
      let root = Heap.get_root heap in
      let entries = Machine.dump m ~root in
      let wide_entries = wide_dump heap root in
      ( finish Completed (check_invariants config ?wide_entries entries) None entries,
        m,
        None )
  | Scheduler.Deadlocked { blocked } ->
      (finish (Deadlocked blocked) (Invariant.failed "deadlocked") None [], m, None)
  | Scheduler.Crashed { at_step } ->
      let clock_before = (Nvm.Pmem.stats pmem).Nvm.Stats.clock in
      let rescue_bill = Machine.crash_execute ?fault:config.fault_model m in
      let verdict = rescue_bill.Tsp_core.Crash_executor.verdict in
      let recovery = Machine.recover ~mode:config.recovery_mode m in
      (* The driver has no service to overlap with: drive any pending
         incremental collection to completion before dumping, so the
         recovered image and verdicts are final whatever the mode. *)
      ignore
        (Machine.finish_background_gc m
          : (Pheap.Heap_gc.stats * Pheap.Heap_gc.quarantine) option);
      let rheap = recovery.Machine.heap in
      let entries, invariants =
        match rheap with
        | Some rheap when recovery.Machine.heap_audit_ok -> begin
            match
              Machine.read_back m
                ~root:(fun () -> Heap.get_root rheap)
                (wide_dump rheap)
            with
            | Ok (entries, wide_entries) ->
                (entries, check_invariants config ?wide_entries entries)
            | Error msg ->
                ([], Invariant.failed ("map traversal failed: " ^ msg))
          end
        | Some _ -> ([], Invariant.failed "heap audit failed")
        | None -> ([], Invariant.failed "heap unrecoverable")
      in
      let crash =
        Some (crash_report_of pmem ~verdict ~recovery ~clock_before ~rescue_bill)
      in
      (finish (Crashed at_step) invariants crash entries, m, Some recovery)

let run config =
  let r, _, _ = run_full config in
  r

let consistent r =
  r.invariants.Invariant.ok
  &&
  match r.crash with
  | None -> true
  | Some c -> c.heap_audit_ok && c.recovery_errors = []

let pp_result ppf r =
  let pp_outcome ppf = function
    | Completed -> Fmt.string ppf "completed"
    | Crashed s -> Fmt.pf ppf "crashed at step %d" s
    | Deadlocked l ->
        Fmt.pf ppf "DEADLOCK (%a)" Fmt.(list ~sep:comma string) l
  in
  Fmt.pf ppf
    "@[<v>%s / %s on %s: %a@ %d iterations in %a cycles = %.2f M iter/s \
     (sim); %d steps@ %a%a@]"
    (variant_to_string r.config.variant)
    (match r.config.workload with
    | Counters _ -> "counters"
    | Mixed { read_pct; _ } -> Printf.sprintf "mixed(%d%% reads)" read_pct
    | Wide { value_words; _ } -> Printf.sprintf "wide(%d words)" value_words
    | Ycsb { preset; _ } -> "ycsb-" ^ Ycsb.preset_to_string preset
    | Transfers _ -> "transfers")
    r.config.platform.Nvm.Config.name pp_outcome r.outcome r.iterations_done
    Nvm.Cost_model.pp_cycles r.elapsed_cycles r.miters_per_sec r.total_steps
    Invariant.pp r.invariants
    (fun ppf -> function
      | None -> ()
      | Some c ->
          Fmt.pf ppf "@ crash: %a" Tsp_core.Policy.pp_verdict c.verdict;
          Fmt.pf ppf "@ recovery verdict: %a" Atlas.Recovery.pp_verdict
            c.recovery_verdict;
          Option.iter
            (fun o -> Fmt.pf ppf "@ %a" Tsp_core.Recovery_observer.pp o)
            c.observer;
          Option.iter
            (fun a -> Fmt.pf ppf "@ %a" Atlas.Recovery.pp_report a)
            c.atlas_recovery;
          Option.iter
            (fun g -> Fmt.pf ppf "@ gc: %a" Heap_gc.pp_stats g)
            c.gc;
          if c.recovery_errors <> [] then
            Fmt.pf ppf "@ recovery errors: %a"
              Fmt.(list ~sep:comma string)
              c.recovery_errors)
    r.crash

(* --- Restart: resume execution from the recovered state ---

   The paper's recovery contract (Section 4.1): "application code
   resume[s] execution from a consistent state of the persistent heap".
   This driver exercises it end to end: crash, recover, then run fresh
   workers against the same device until the workload completes.

   For the counter workload the recovered state itself tells each thread
   where to pick up: its c2 counter holds the last finished iteration.
   Because the three steps of an iteration are three separate atomic
   operations (not one), a thread killed between its data increment and
   its c2 update will redo that increment on resume — at-least-once
   semantics, with the duplication bounded by one increment per thread.
   The report measures that bound; making the whole iteration one
   failure-atomic section would need a single OCS spanning all three
   operations (cf. the transfer workload, which is exactly that). *)

type resume_report = {
  first : result;  (** the crashed phase, fully verified *)
  resumed : bool;  (** a resume phase actually ran *)
  resume_iterations : int;
  final_entries : (int * int64) list;
  final_invariants : Invariant.result;
  completion_ok : bool;
      (** every thread reached [iterations], and for counters the H-range
          total matches T x iterations up to the at-least-once bound *)
  duplicated_increments : int;  (** counters: 0 <= duplicates <= T *)
}

let resume_counters config (m : Machine.t) ~h_keys recovery =
  let root = Machine.reattach m recovery in
  let pmem = m.Machine.pmem in
  let sched = m.Machine.sched in
  let map = m.Machine.map in
  (* Each thread derives its restart point from the persistent heap. *)
  let entries = Machine.dump m ~root in
  let resume_from tid =
    match List.assoc_opt (Key_space.c2 ~tid) entries with
    | Some v -> Int64.to_int v + 1
    | None -> 1
  in
  let resumed_iters = ref 0 in
  for tid = 0 to config.threads - 1 do
    let start = resume_from tid in
    let rng = Rng.create ~seed:(config.seed + 555 + (1000 * tid)) in
    ignore
      (Scheduler.spawn sched
         ~name:(Printf.sprintf "resumed-%d" tid)
         (fun () ->
           for i = start to config.iterations do
             Nvm.Pmem.charge pmem config.iter_cycles;
             map.Machine.map_ops.Tsp_maps.Map_intf.set ~tid
               ~key:(Key_space.c1 ~tid) ~value:(Int64.of_int i);
             let k = Key_space.h_key (Rng.int rng h_keys) in
             map.Machine.map_ops.Tsp_maps.Map_intf.incr ~tid ~key:k ~by:1L;
             map.Machine.map_ops.Tsp_maps.Map_intf.set ~tid
               ~key:(Key_space.c2 ~tid) ~value:(Int64.of_int i);
             incr resumed_iters
           done)
        : int)
  done;
  let outcome = Machine.execute m in
  (outcome, !resumed_iters, Machine.dump m ~root)

let run_with_resume config =
  let h_keys =
    match config.workload with
    | Counters { h_keys; _ } -> h_keys
    | Mixed _ | Wide _ | Ycsb _ | Transfers _ ->
        invalid_arg
          "Runner.run_with_resume: transfers resume trivially (any number of \
           further transfers preserves conservation); use the counter \
           workload, whose completion target makes resumption observable"
  in
  let first, m, recovery = run_full config in
  let no_resume completion_ok =
    {
      first;
      resumed = false;
      resume_iterations = 0;
      final_entries = first.entries;
      final_invariants = first.invariants;
      completion_ok;
      duplicated_increments = 0;
    }
  in
  match (first.outcome, recovery) with
  | Completed, _ -> no_resume (consistent first)
  | (Crashed _ | Deadlocked _), None -> no_resume false
  | Deadlocked _, Some _ -> no_resume false
  | Crashed _, Some recovery ->
      if not (consistent first) then no_resume false
      else begin
        let outcome, resume_iterations, final_entries =
          resume_counters config m ~h_keys recovery
        in
        let final_invariants =
          Invariant.counters_resumed ~entries:final_entries
            ~threads:config.threads
        in
        let sum_h =
          List.fold_left
            (fun acc (k, v) -> if Key_space.is_h k then Int64.add acc v else acc)
            0L final_entries
        in
        let expected = config.threads * config.iterations in
        let duplicated = Int64.to_int sum_h - expected in
        let counters_done =
          List.for_all
            (fun tid ->
              List.assoc_opt (Key_space.c2 ~tid) final_entries
              = Some (Int64.of_int config.iterations))
            (List.init config.threads (fun t -> t))
        in
        let completion_ok =
          outcome = Scheduler.Completed
          && counters_done
          && duplicated >= 0
          && duplicated <= config.threads
          && final_invariants.Invariant.ok
        in
        {
          first;
          resumed = true;
          resume_iterations;
          final_entries;
          final_invariants;
          completion_ok;
          duplicated_increments = max 0 duplicated;
        }
      end

let pp_resume_report ppf r =
  Fmt.pf ppf
    "@[<v>phase 1: %a@ resumed: %b (%d iterations replayed to completion)@ \
     final: %a@ completion %s; duplicated increments %d (bound %d)@]"
    pp_result r.first r.resumed r.resume_iterations Invariant.pp
    r.final_invariants
    (if r.completion_ok then "OK" else "FAILED")
    r.duplicated_increments r.first.config.threads
