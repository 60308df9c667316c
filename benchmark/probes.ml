(* The traced run's layer probes: tight loops over one layer's public
   functions, plus one replay of every span kind the workloads produce,
   so that every per-layer metric is measured in every traced run. *)

open Workloads

let span ctx name f = Spans.span ctx.spans name f

(* [reps] spans named [name], each timing [iters] calls of [f]. *)
let loop ctx name ~reps ~iters f =
  for _ = 1 to reps do
    span ctx name (fun () ->
        for i = 0 to iters - 1 do
          f i
        done)
  done

let device ~smoke =
  Nvm.Pmem.create
    (Nvm.Config.with_region_size Nvm.Config.desktop (if smoke then 1 lsl 20 else 4 lsl 20))

(* Loads and stores sweep a 1 MiB window: twice the simulated desktop
   cache, so the loop pays misses and write-backs as well as hits. *)
let addr i = (i * 64) land ((1 lsl 20) - 1)

let nvm ctx ~smoke ~reps ~iters (w : Workloads.t) =
  for _ = 1 to (if smoke then 3 else 20) do
    ignore (span ctx "nvm.pmem_create" (fun () -> Nvm.Pmem.create w.create_platform) : Nvm.Pmem.t)
  done;
  let pmem = device ~smoke in
  loop ctx "nvm.loadstore" ~reps ~iters (fun i ->
      Nvm.Pmem.store_int pmem (addr i) i;
      ignore (Nvm.Pmem.load_int pmem (addr i) : int));
  loop ctx "nvm.flush_fence" ~reps ~iters (fun i ->
      Nvm.Pmem.store_int pmem (addr i) i;
      Nvm.Pmem.flush pmem (addr i);
      Nvm.Pmem.fence pmem)

(* The load/store loop again, from a simulated thread of a one-thread
   scheduler that grants batched quanta. *)
let sched ctx ~smoke ~reps ~iters =
  let pmem = device ~smoke in
  for _ = 1 to reps do
    let s = Sched.Scheduler.create ~quantum:true () in
    Nvm.Pmem.set_step_hook pmem (Sched.Scheduler.step s);
    Nvm.Pmem.set_quantum pmem (Sched.Scheduler.quantum_handle s);
    ignore
      (Sched.Scheduler.spawn s (fun () ->
           for i = 0 to iters - 1 do
             Nvm.Pmem.store_int pmem (addr i) i;
             ignore (Nvm.Pmem.load_int pmem (addr i) : int)
           done)
        : int);
    ignore
      (span ctx "sched.quantum_loop" (fun () -> Sched.Scheduler.run s)
        : Sched.Scheduler.outcome);
    Nvm.Pmem.clear_step_hook pmem;
    Nvm.Pmem.clear_quantum pmem
  done

let atlas ctx ~smoke ~reps ~iters =
  let pmem = device ~smoke in
  let log = Atlas.Undo_log.format pmem ~base:0 ~size:(512 lsl 10) ~num_threads:1 in
  let seq = ref 0 in
  loop ctx "atlas.append_loop" ~reps ~iters (fun i ->
      incr seq;
      let entry =
        { Atlas.Log_entry.seq = !seq; tid = 0; payload = Update { addr = addr i; old = 0L } }
      in
      let at = Atlas.Undo_log.append log ~tid:0 entry in
      Atlas.Undo_log.advance_tail log ~tid:0 ~new_tail:(Atlas.Undo_log.next_slot log at)
        ~flush:false)

(* [reps] passes of [get] over [keys] resident keys, from one simulated
   thread. *)
let map_gets ctx ~smoke ~reps ~keys variant name =
  let spec = RS.default_spec ~variant ~seed:1 in
  let platform = if smoke then shrink spec.platform else spec.platform in
  let m = Machine.create { spec with Machine.platform; threads = 1; log_mib = 1 } in
  for i = 0 to keys - 1 do
    m.map.set_plain ~key:(Workload.Key_space.h_key i) ~value:(Int64.of_int i)
  done;
  let ops = m.map.map_ops in
  ignore
    (Sched.Scheduler.spawn m.sched (fun () ->
         loop ctx name ~reps ~iters:keys (fun i ->
             ignore (ops.get ~tid:0 ~key:(Workload.Key_space.h_key i) : int64 option)))
      : int);
  ignore (Machine.execute m : Sched.Scheduler.outcome)

let pheap ctx ~smoke ~reps ~iters =
  let heap = Pheap.Heap.create (device ~smoke) ~base:0 ~size:(512 lsl 10) in
  loop ctx "pheap.alloc_free_loop" ~reps ~iters (fun _ ->
      Pheap.Heap.free heap (Pheap.Heap.alloc heap ~kind:Pheap.Kind.raw ~words:4))

(* One domain against [jobs] (two where the host has them) on the service
   unit, untraced.  Returns the CPU and wall seconds of the fanned-out
   runs. *)
let service ctx ~seed ~smoke =
  let cfg = service_config ~seed ~smoke in
  let cpu = ref 0. and wall = ref 0. in
  for _ = 1 to (if smoke then 1 else 3) do
    ignore (serve_run ctx ~name:"service.serve_jobs1" ~jobs:1 cfg : Serve.report);
    let c0 = Clock.cpu () and t0 = Clock.now_ns () in
    ignore (serve_run ctx ~name:"service.serve_jobs2" ~jobs cfg : Serve.report);
    let c1 = Clock.cpu () in
    wall := !wall +. (float_of_int (Clock.now_ns () - t0) /. 1e9);
    cpu := !cpu +. (c1.user -. c0.user) +. (c1.sys -. c0.sys)
  done;
  (!cpu, !wall)

(* Run every probe; [check] sees the outcome of each replayed unit.
   Returns the CPU and wall seconds of the fanned-out service runs. *)
let run ctx (w : Workloads.t) ~seed ~smoke ~check =
  let reps = if smoke then 2 else 5 and iters = if smoke then 1 lsl 12 else 1 lsl 17 in
  nvm ctx ~smoke ~reps ~iters w;
  sched ctx ~smoke ~reps ~iters;
  atlas ctx ~smoke ~reps ~iters;
  pheap ctx ~smoke ~reps ~iters;
  let keys = if smoke then 1000 else 10_000 in
  map_gets ctx ~smoke ~reps ~keys (Machine.Mutex_map Atlas.Mode.No_log) "tsp_maps.hash_get_loop";
  map_gets ctx ~smoke ~reps ~keys Machine.Nonblocking_map "tsp_maps.skiplist_get_loop";
  let replay (u : unit_) = check (fst (u.traced ctx)) in
  Array.iter replay (recovery_round ~seed ~smoke);
  Array.iter replay
    (crash_round (Random.State.make [| seed |]) ~smoke ~early:true
       ~fault_variants:[ Runner.Mutex_map Atlas.Mode.Log_only ]
       ~dl_variants:[ Runner.Nonblocking_map ]);
  service ctx ~seed ~smoke
