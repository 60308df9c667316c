(* A crash-resilient key-value store in ~zero lines of recovery code.

   Section 4.1's observation, executed: a lock-free skip list over a
   persistent heap is consistently recoverable under TSP with no logging,
   no flushing and no recovery logic whatsoever.  We run concurrent
   writers, kill them all mid-flight, and simply re-attach.

   Run with: dune exec examples/kvstore_nonblocking.exe *)

module Pmem = Nvm.Pmem
module Heap = Pheap.Heap
module Skiplist = Tsp_maps.Lockfree_skiplist
module Scheduler = Sched.Scheduler

let () =
  let pmem = Pmem.create Nvm.Config.desktop in
  let size = 8 * 1024 * 1024 in
  let heap = Heap.create pmem ~base:0 ~size in
  let threads = 8 in
  let store = Skiplist.create heap ~num_threads:threads ~seed:42 () in
  let ops = Skiplist.ops store in

  (* Concurrent writers under the deterministic scheduler; each thread
     upserts its own key range and bumps a shared hit counter. *)
  let sched = Scheduler.create ~seed:7 () in
  for tid = 0 to threads - 1 do
    ignore
      (Scheduler.spawn sched ~name:(Printf.sprintf "writer-%d" tid)
         (fun () ->
           for i = 1 to 500 do
             ops.Tsp_maps.Map_intf.set ~tid
               ~key:((1000 * tid) + (i mod 100))
               ~value:(Int64.of_int i);
             ops.Tsp_maps.Map_intf.incr ~tid ~key:0 ~by:1L
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ~crash_at_step:60_000 sched in
  Pmem.clear_step_hook pmem;
  (match outcome with
  | Scheduler.Crashed { at_step } ->
      Fmt.pr "killed all %d writers at step %d@." threads at_step
  | _ -> Fmt.pr "writers finished before the crash point@.");
  Fmt.pr "flushes issued during the whole run: %d@."
    (Pmem.stats pmem).Nvm.Stats.flushes;

  (* TSP crash, then recovery = re-attach.  That's all of it. *)
  ignore
    (Tsp_core.Crash_executor.execute pmem
       ~hardware:Tsp_core.Hardware.nvram_machine
       ~failure:Tsp_core.Failure_class.Process_crash
      : Tsp_core.Crash_executor.execution);
  Pmem.recover pmem;
  let heap = Heap.attach pmem ~base:0 ~size in
  let root = Heap.get_root heap in
  (match Skiplist.check_plain heap ~root with
  | Ok () -> Fmt.pr "@.skip list structurally consistent after crash@."
  | Error e -> Fmt.pr "@.UNEXPECTED: %s@." e);
  let entries = Skiplist.size_plain heap ~root in
  let hits =
    Skiplist.fold_plain heap ~root
      (fun k v acc -> if k = 0 then v else acc)
      0L
  in
  Fmt.pr "%d keys present; shared counter reached %Ld@." entries hits;
  (* The recovery GC is optional here — it only reclaims nodes whose
     insertion lost its race or was cut off before linking. *)
  let gc, _quarantine = Pheap.Heap_gc.collect heap in
  Fmt.pr "optional GC pass: %a@." Pheap.Heap_gc.pp_stats gc;
  Fmt.pr
    "@.Zero runtime overhead, zero recovery code: the non-blocking \
     algorithm plus TSP did all the work.@."
