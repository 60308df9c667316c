module Heap = Pheap.Heap
module Heap_gc = Pheap.Heap_gc
module Rt = Atlas.Runtime
module Scheduler = Sched.Scheduler
module Rng = Sched.Sim_rng
module Hashmap = Tsp_maps.Chained_hashmap
module Skiplist = Tsp_maps.Lockfree_skiplist
module Btree = Tsp_maps.Btree
module Delayfree = Tsp_maps.Delayfree_map

include Run_config

let value_words spec =
  match spec.workload with
  | Wide { value_words; _ } -> value_words
  | Counters _ | Mixed _ | Ycsb _ | Transfers _ -> 1

type map = {
  map_ops : Tsp_maps.Map_intf.ops;
  set_plain : key:int -> value:int64 -> unit;
  fold_root :
    Heap.t ->
    root:Heap.addr ->
    (int -> int64 -> (int * int64) list -> (int * int64) list) ->
    (int * int64) list;
  audit : Heap.t -> root:Heap.addr -> unit;
  hashmap : Hashmap.t option;
}

type t = {
  spec : config;
  pmem : Nvm.Pmem.t;
  mutable heap : Heap.t;
  mutable sched : Scheduler.t;
  mutable map : map;
  mutable gc_pending : Heap_gc.Incremental.t option;
}

let log_base spec = spec.platform.Nvm.Config.region_size - (spec.log_mib * 1024 * 1024)
let log_size spec = spec.log_mib * 1024 * 1024

(* Attach the machine's tracer (if any) to its device/scheduler pair:
   ops and ctx switches emit events, each event samples the cache's
   dirty-line count, and timestamps come from the executing thread's
   virtual clock — falling back to the device's own clock in harness
   code (setup, crash handling, recovery), where no thread is running.
   Reads only: tracing never perturbs the simulation.  The context
   closures are per-tracer, which is why a tracer must be private to
   one machine. *)
let wire_tracer spec pmem sched =
  match spec.tracer with
  | None -> ()
  | Some tr ->
      Nvm.Pmem.set_tracer pmem (Some tr);
      Scheduler.set_tracer sched (Some tr);
      Obs.Tracer.set_tid tr (fun () -> Scheduler.current_id sched);
      let stats = Nvm.Pmem.stats pmem in
      Obs.Tracer.set_clock tr (fun () ->
          if Scheduler.in_thread sched then Scheduler.now sched
          else stats.Nvm.Stats.clock)

(* The Atlas runtime a mutex-based variant runs under, formatting the
   undo-log region; [first_seq] seeds it after recovery. *)
let build_atlas ?first_seq spec heap =
  match spec.variant with
  | Mutex_map mode | Mutex_btree mode ->
      Some
        (Rt.create ~costs:spec.atlas_costs ?first_seq ~mode ~heap
           ~log_base:(log_base spec) ~log_size:(log_size spec)
           ~num_threads:spec.threads ())
  | Nonblocking_map | Nvtraverse_map | Delayfree_map -> None

(* The map handles, one builder per variant: [root] is [None] to create
   the structure on a fresh heap and [Some root] to attach to the one a
   recovered heap holds. *)
let build_map spec heap atlas sched ~root =
  let map map_ops set_plain fold_plain audit hashmap =
    {
      map_ops;
      set_plain;
      fold_root = (fun h ~root f -> fold_plain h ~root f []);
      audit;
      hashmap;
    }
  in
  let audited what check h ~root =
    match check h ~root with
    | Ok () -> ()
    | Error e -> raise (Heap.Corrupt (what ^ " audit: " ^ e))
  in
  (* The hash map has no structural audit, and the plain skip list
     stays unaudited: the audit's loads are costed and land in the
     recovery cost, so they would move its pinned values. *)
  let unaudited _ ~root:_ = () in
  let seed = spec.seed + 7 in
  match spec.variant with
  | Mutex_map _ ->
      let atlas = Option.get atlas in
      let op_cycles = spec.hash_op_cycles in
      let hm =
        match root with
        | None ->
            Hashmap.create heap ~atlas ~sched ~n_buckets:spec.n_buckets
              ~op_cycles ~value_words:(value_words spec) ()
        | Some root -> Hashmap.attach heap ~atlas ~sched ~op_cycles root
      in
      map (Hashmap.ops hm) (Hashmap.set_plain hm) Hashmap.fold_plain unaudited
        (Some hm)
  | Mutex_btree _ ->
      let atlas = Option.get atlas in
      let op_cycles = spec.hash_op_cycles in
      let bt =
        match root with
        | None -> Btree.create heap ~atlas ~sched ~op_cycles ()
        | Some root -> Btree.attach heap ~atlas ~sched ~op_cycles root
      in
      map (Btree.ops bt) (Btree.set_plain bt) Btree.fold_plain
        (audited "btree" Btree.check_plain)
        None
  | (Nonblocking_map | Nvtraverse_map) as v ->
      let num_threads = spec.threads and op_cycles = spec.skip_op_cycles in
      let nvtraverse = v = Nvtraverse_map in
      let sl =
        match root with
        | None ->
            Skiplist.create heap ~num_threads ~op_cycles ~nvtraverse ~seed ()
        | Some root ->
            Skiplist.attach heap ~op_cycles ~nvtraverse ~num_threads ~seed root
      in
      map (Skiplist.ops sl) (Skiplist.set_plain sl) Skiplist.fold_plain
        (if nvtraverse then audited "skiplist" Skiplist.check_plain
         else unaudited)
        None
  | Delayfree_map ->
      let op_cycles = spec.hash_op_cycles in
      let df =
        match root with
        | None ->
            Delayfree.create heap ~op_cycles
              ~capacity:(Delayfree.capacity_for ~n_buckets:spec.n_buckets)
              ()
        | Some root -> Delayfree.attach heap ~op_cycles root
      in
      map (Delayfree.ops df) (Delayfree.set_plain df) Delayfree.fold_plain
        (audited "rcas table" Delayfree.check_plain)
        None

let create spec =
  let pmem = Nvm.Pmem.create ~journal:spec.journal spec.platform in
  let heap = Heap.create pmem ~base:0 ~size:(log_base spec) in
  let sched =
    Scheduler.create ~seed:spec.seed ~cost_jitter:spec.cost_jitter ()
  in
  wire_tracer spec pmem sched;
  let atlas = build_atlas spec heap in
  let map = build_map spec heap atlas sched ~root:None in
  { spec; pmem; heap; sched; map; gc_pending = None }

let with_tracer m tr =
  let spec = { m.spec with tracer = Some tr } in
  wire_tracer spec m.pmem m.sched;
  { m with spec }

let instrument m wrap = m.map <- { m.map with map_ops = wrap m.map.map_ops }

let execute ?crash_at_step m =
  Nvm.Pmem.set_step_hook m.pmem (fun ~cost -> Scheduler.step m.sched ~cost);
  Nvm.Pmem.set_quantum m.pmem (Scheduler.quantum_handle m.sched);
  Fun.protect
    ~finally:(fun () ->
      Nvm.Pmem.clear_quantum m.pmem;
      Nvm.Pmem.clear_step_hook m.pmem)
    (fun () -> Scheduler.run ?crash_at_step m.sched)

let crash_execute ?fault m =
  (* The crash draws (torn-word counts, bit-flip targets) come from
     their own seed-derived stream, so a given (spec, crash step) is
     bit-reproducible regardless of what the workload drew. *)
  let crash_rng =
    let r = Rng.create ~seed:((m.spec.seed * 31) + 17) in
    fun bound -> Rng.int r bound
  in
  Obs.Tracer.in_phase m.spec.tracer ~phase:Obs.Event.phase_rescue (fun () ->
      Tsp_core.Crash_executor.execute ?fault ~rng:crash_rng m.pmem
        ~hardware:m.spec.hardware ~failure:m.spec.failure)

type recovery = {
  observer : Tsp_core.Recovery_observer.verdict option;
  atlas_recovery : Atlas.Recovery.report option;
  gc : Heap_gc.stats option;
  gc_pending : Heap_gc.Incremental.t option;
  recovery_verdict : Atlas.Recovery.verdict;
  heap_audit_ok : bool;
  recovery_errors : string list;
  recovery_cycles : int;
}

(* Post-crash pipeline: device-level crash semantics, then recovery,
   then audit.  Every step can fail when the crash was not TSP-covered;
   failures are reported, not raised. *)
let recover ?(mode = Eager) m =
  let spec = m.spec in
  let pmem = m.pmem in
  let stats = Nvm.Pmem.stats pmem in
  let clock0 = stats.Nvm.Stats.clock in
  let observer =
    if spec.journal then Some (Tsp_core.Recovery_observer.observe pmem)
    else None
  in
  Nvm.Pmem.recover pmem;
  (* [Invalid_argument] too: after bit rot the persisted header fields
     can be arbitrary garbage, not merely inconsistent. *)
  match Heap.attach pmem ~base:0 ~size:(log_base spec) with
  | exception (Heap.Corrupt msg | Invalid_argument msg) ->
      let e = "heap attach failed: " ^ msg in
      m.gc_pending <- None;
      {
        observer;
        atlas_recovery = None;
        gc = None;
        gc_pending = None;
        recovery_verdict = Atlas.Recovery.Unrecoverable e;
        heap_audit_ok = false;
        recovery_errors = [ e ];
        recovery_cycles = stats.Nvm.Stats.clock - clock0;
      }
  | heap ->
      let errors = ref [] in
      let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
      let atlas_recovery =
        match spec.variant with
        | Mutex_map _ | Mutex_btree _ -> begin
            (* [Recovery.run] is graceful by construction; the handler is
               a belt-and-braces backstop so one buggy path cannot take
               the whole campaign down. *)
            let scan =
              match mode with
              | Eager -> Atlas.Recovery.Costed_scan
              | Parallel_gc _ | Incremental_gc -> Atlas.Recovery.Streamed_scan
            in
            try Some (Atlas.Recovery.run ~scan ~heap ~log_base:(log_base spec) ())
            with exn ->
              err "atlas recovery failed: %s" (Printexc.to_string exn);
              None
          end
        | Nonblocking_map | Nvtraverse_map | Delayfree_map -> None
      in
      (* The delay-free map's recovery obligation: complete or abort
         every in-flight announced CAS exactly once, before anything
         reads the table.  [rcas_failed] feeds the verdict — a table we
         could not even scan is a degraded recovery, not a clean one. *)
      let rcas_failed =
        match spec.variant with
        | Delayfree_map -> begin
            try
              ignore
                (Delayfree.repair heap (Heap.get_root heap) : Delayfree.repair);
              false
            with exn ->
              err "rcas repair failed: %s" (Printexc.to_string exn);
              true
          end
        | Mutex_map _ | Mutex_btree _ | Nonblocking_map | Nvtraverse_map -> false
      in
      let gc_phase f =
        Obs.Tracer.in_phase spec.tracer ~phase:Obs.Event.phase_heap_gc f
      in
      let (gc, quarantine), gc_pending =
        match mode with
        | Eager -> (gc_phase (fun () -> Heap_gc.collect heap), None)
        | Parallel_gc jobs ->
            (* The streamed mark's chunk thunks run on the domain pool.
               [Parallel.run_all ~jobs:1] is exactly sequential
               iteration, so jobs only changes wall-clock. *)
            let fanout tasks =
              ignore (Parallel.run_all ~jobs tasks : unit list)
            in
            (gc_phase (fun () -> Heap_gc.collect_streamed ~fanout heap), None)
        | Incremental_gc ->
            (* Plan only: no stores, no charges.  The collection bill is
               paid later — by the background fiber and by on-demand
               touches — so the outage window ends here.  The planned
               stats (with analytic mark/sweep cycles) and quarantine
               are final; only their application is deferred.  Its mark
               runs inline: its win is the shorter outage, not host
               parallelism. *)
            let inc = Heap_gc.Incremental.start heap in
            (Heap_gc.Incremental.plan inc, Some inc)
      in
      let heap_audit_ok =
        match
          Obs.Tracer.in_phase spec.tracer ~phase:Obs.Event.phase_audit
            (fun () ->
              try Heap_gc.verify heap
              with exn -> Error [ Printexc.to_string exn ])
        with
        | Ok () -> true
        | Error es ->
            List.iter (fun e -> err "audit: %s" e) es;
            false
      in
      let reasons =
        (match atlas_recovery with
        | Some a -> begin
            match a.Atlas.Recovery.verdict with
            | Atlas.Recovery.Clean -> []
            | Atlas.Recovery.Degraded rs -> rs
            | Atlas.Recovery.Unrecoverable msg ->
                [ "undo log unrecoverable: " ^ msg ]
          end
        | None -> [])
        @ (if quarantine.Heap_gc.unscannable > 0
              || quarantine.Heap_gc.quarantined_words > 0
           then quarantine.Heap_gc.reasons
           else [])
        @ (if rcas_failed then [ "rcas repair failed" ] else [])
        @ if heap_audit_ok then [] else [ "heap audit failed" ]
      in
      (* the old map handles point into the pre-crash heap; [reattach]
         rebuilds them *)
      m.heap <- heap;
      m.gc_pending <- gc_pending;
      {
        observer;
        atlas_recovery;
        gc = Some gc;
        gc_pending;
        recovery_verdict =
          (match reasons with
          | [] -> Atlas.Recovery.Clean
          | rs -> Atlas.Recovery.Degraded rs);
        heap_audit_ok;
        recovery_errors = List.rev !errors;
        recovery_cycles = stats.Nvm.Stats.clock - clock0;
      }

let finish_background_gc (m : t) =
  match m.gc_pending with
  | None -> None
  | Some inc ->
      let result = Heap_gc.Incremental.finish inc in
      m.gc_pending <- None;
      Some result

(* The restart rule: the restarted scheduler draws from its own
   seed-derived stream, and the Atlas sequence resumes past the highest
   sequence number recovery saw. *)
let reattach (m : t) (r : recovery) =
  let spec = m.spec in
  let first_seq =
    match r.atlas_recovery with
    | Some a -> a.Atlas.Recovery.max_seq + 1
    | None -> 1
  in
  let sched =
    Scheduler.create ~seed:(spec.seed + 101) ~cost_jitter:spec.cost_jitter ()
  in
  (* The restarted machine gets a fresh scheduler: repoint the tracer's
     thread and clock closures at it so post-recovery events keep
     flowing. *)
  wire_tracer spec m.pmem sched;
  let atlas = build_atlas ~first_seq spec m.heap in
  let root = Heap.get_root m.heap in
  let map = build_map spec m.heap atlas sched ~root:(Some root) in
  m.sched <- sched;
  m.map <- map;
  root

let dump (m : t) ~root =
  m.map.fold_root m.heap ~root (fun k v acc -> (k, v) :: acc)

(* A damaged image can make locating the root, the audit or any walk
   raise: [Heap.Corrupt] from a bounded walk or an audit, or
   [Invalid_argument] where a garbage word indexes past the device or
   names no object. *)
let read_back (m : t) ~root also =
  match
    let root = root () in
    m.map.audit m.heap ~root;
    let entries = dump m ~root in
    (entries, also root)
  with
  | read -> Ok read
  | exception (Heap.Corrupt msg | Invalid_argument msg) -> Error msg
