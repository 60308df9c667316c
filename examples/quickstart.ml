(* Quickstart: the "NVM style" of programming on the simulated device.

   We create a persistent heap, build a tiny linked list reachable from
   the heap root, crash the machine under a TSP-covered failure, recover,
   and find the data intact — without a single flush during operation.

   Run with: dune exec examples/quickstart.exe *)

module Pmem = Nvm.Pmem
module Heap = Pheap.Heap
module Kind = Pheap.Kind

(* A cons cell: [0] = value (raw), [1] = next (pointer). *)
let cell_kind =
  Kind.register ~name:"quickstart_cell"
    ~scan:(fun ~load ~addr ~words:_ ~emit ->
      let next = load (addr + 8) in
      if next <> 0 then emit next)
    ()

let cons heap value next =
  let cell = Heap.alloc heap ~kind:cell_kind ~words:2 in
  Heap.store_field heap cell 0 (Int64.of_int value);
  Heap.store_field_int heap cell 1 next;
  cell

let rec to_list heap cell =
  if cell = Heap.null then []
  else
    Heap.load_field_int heap cell 0
    :: to_list heap (Heap.load_field_int heap cell 1)

let () =
  (* A journaling device so we can ask the recovery observer afterwards
     whether every store survived. *)
  let pmem = Pmem.create ~journal:true Nvm.Config.desktop in
  let size = 1024 * 1024 in
  let heap = Heap.create pmem ~base:0 ~size in

  (* Build [1; 2; 3] in the persistent heap and hang it off the root. *)
  let list = cons heap 1 (cons heap 2 (cons heap 3 Heap.null)) in
  Heap.set_root heap list;
  Fmt.pr "before crash: root list = %a@."
    Fmt.(Dump.list int)
    (to_list heap (Heap.get_root heap));
  Fmt.pr "dirty cache lines right now: %d (nothing was flushed)@."
    (Pmem.dirty_line_count pmem);

  (* Crash under a failure class for which TSP is available on this
     hardware: the policy engine decides the device's behaviour. *)
  let crash =
    Tsp_core.Crash_executor.execute pmem
      ~hardware:Tsp_core.Hardware.nvram_machine
      ~failure:Tsp_core.Failure_class.Process_crash
  in
  Fmt.pr "@.crash injected: %a@." Tsp_core.Policy.pp_verdict
    crash.Tsp_core.Crash_executor.verdict;
  Fmt.pr "%a@." Tsp_core.Recovery_observer.pp
    (Tsp_core.Recovery_observer.observe pmem);

  (* Recover: re-attach, let the recovery GC rebuild allocator state. *)
  Pmem.recover pmem;
  let heap = Heap.attach pmem ~base:0 ~size in
  let gc, _quarantine = Pheap.Heap_gc.collect heap in
  Fmt.pr "@.after recovery: root list = %a@."
    Fmt.(Dump.list int)
    (to_list heap (Heap.get_root heap));
  Fmt.pr "recovery GC: %a@." Pheap.Heap_gc.pp_stats gc;
  Fmt.pr "@.The list survived a crash with zero failure-free overhead: that \
          is Timely Sufficient Persistence.@."
