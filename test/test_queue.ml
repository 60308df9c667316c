(* Tests for the lock-free Michael-Scott queue: FIFO semantics,
   model-based random testing, concurrency, and the Section 4.1 claim on
   a second non-blocking structure — crash anywhere, re-attach, done. *)

open Helpers
module Queue_lf = Tsp_maps.Lockfree_queue
module Heap_gc = Pheap.Heap_gc

let fresh () =
  let pmem = desktop_pmem ~region_mib:4 () in
  let size = (Pmem.config pmem).Config.region_size in
  let heap = Heap.create pmem ~base:0 ~size in
  (pmem, heap, Queue_lf.create heap ())

let test_fifo_basics () =
  let _, _, q = fresh () in
  Alcotest.(check bool) "fresh empty" true (Queue_lf.is_empty q);
  Alcotest.(check (option int64)) "dequeue empty" None (Queue_lf.dequeue q);
  Queue_lf.enqueue q 1L;
  Queue_lf.enqueue q 2L;
  Queue_lf.enqueue q 3L;
  Alcotest.(check int) "length" 3 (Queue_lf.length q);
  Alcotest.(check (list int64)) "snapshot order" [ 1L; 2L; 3L ]
    (Queue_lf.to_list q);
  Alcotest.(check (option int64)) "fifo 1" (Some 1L) (Queue_lf.dequeue q);
  Alcotest.(check (option int64)) "fifo 2" (Some 2L) (Queue_lf.dequeue q);
  Queue_lf.enqueue q 4L;
  Alcotest.(check (option int64)) "fifo 3" (Some 3L) (Queue_lf.dequeue q);
  Alcotest.(check (option int64)) "fifo 4" (Some 4L) (Queue_lf.dequeue q);
  Alcotest.(check bool) "drained" true (Queue_lf.is_empty q)

let test_attach () =
  let _, heap, q = fresh () in
  Queue_lf.enqueue q 9L;
  let q2 = Queue_lf.attach heap (Queue_lf.root q) in
  Alcotest.(check (list int64)) "same contents" [ 9L ] (Queue_lf.to_list q2);
  check_raises_invalid "attach to non-header" (fun () ->
      ignore (Queue_lf.attach heap 64))

let test_check_plain () =
  let _, heap, q = fresh () in
  for i = 1 to 5 do
    Queue_lf.enqueue q (Int64.of_int i)
  done;
  ignore (Queue_lf.dequeue q);
  Alcotest.(check bool) "audit ok" true
    (Queue_lf.check_plain heap ~root:(Queue_lf.root q) = Ok ())

let prop_queue_vs_model =
  qcheck ~count:80 "queue behaves like Stdlib.Queue"
    QCheck2.Gen.(list_size (int_range 1 150) (option (int_range 0 1000)))
    (fun script ->
      let _, _, q = fresh () in
      let model : int64 Queue.t = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              Queue_lf.enqueue q (Int64.of_int v);
              Queue.add (Int64.of_int v) model;
              true
          | None ->
              let got = Queue_lf.dequeue q in
              let expected = Queue.take_opt model in
              got = expected)
        script
      && Queue_lf.to_list q = List.of_seq (Queue.to_seq model))

let test_concurrent_producers_consumers () =
  let pmem, heap, q = fresh () in
  let produced = 4 * 60 in
  let consumed = ref [] in
  let sched = Scheduler.create ~seed:13 () in
  for tid = 0 to 3 do
    ignore
      (Scheduler.spawn sched
         ~name:(Printf.sprintf "producer-%d" tid)
         (fun () ->
           for i = 0 to 59 do
             Queue_lf.enqueue q (Int64.of_int ((1000 * tid) + i))
           done)
        : int)
  done;
  for _ = 0 to 1 do
    ignore
      (Scheduler.spawn sched ~name:"consumer" (fun () ->
           for _ = 1 to 80 do
             match Queue_lf.dequeue q with
             | Some v -> consumed := v :: !consumed
             | None -> ()
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  ignore (Scheduler.run sched);
  Pmem.clear_step_hook pmem;
  let remaining = Queue_lf.to_list q in
  (* Conservation: everything produced is either consumed or queued,
     exactly once. *)
  Alcotest.(check int) "nothing lost or duplicated" produced
    (List.length !consumed + List.length remaining);
  let all = List.sort compare (!consumed @ remaining) in
  Alcotest.(check bool) "all values distinct" true
    (List.length (List.sort_uniq compare all) = produced);
  (* Per-producer FIFO: the consumed+queued sequence of each producer's
     values must be in increasing order. *)
  let in_order tid =
    let seq =
      List.filter
        (fun v -> Int64.to_int v / 1000 = tid)
        (List.rev !consumed @ remaining)
    in
    let rec sorted = function
      | a :: (b :: _ as rest) -> a < b && sorted rest
      | _ -> true
    in
    sorted seq
  in
  for tid = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "producer %d FIFO preserved" tid)
      true (in_order tid)
  done;
  Alcotest.(check bool) "audit ok" true
    (Queue_lf.check_plain heap ~root:(Queue_lf.root q) = Ok ())

let test_crash_recovery_zero_mechanism () =
  (* The Section 4.1 claim on a second structure: crash all threads at
     an arbitrary point, rescue (TSP), re-attach.  No logs, no rollback;
     the queue must audit clean, preserve per-producer FIFO order and
     neither lose nor duplicate values that were fully enqueued. *)
  let pmem, heap, q = fresh () in
  Pmem.persist_all pmem;
  let consumed = ref [] in
  let sched = Scheduler.create ~seed:41 () in
  for tid = 0 to 3 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 0 to 199 do
             Queue_lf.enqueue q (Int64.of_int ((1000 * tid) + i))
           done)
        : int)
  done;
  ignore
    (Scheduler.spawn sched (fun () ->
         for _ = 1 to 300 do
           match Queue_lf.dequeue q with
           | Some v -> consumed := v :: !consumed
           | None -> ()
         done)
      : int);
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ~crash_at_step:15_000 sched in
  Pmem.clear_step_hook pmem;
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  Pmem.crash pmem Pmem.Rescue;
  Pmem.recover pmem;
  let size = (Pmem.config pmem).Config.region_size in
  let heap' = Heap.attach pmem ~base:0 ~size in
  ignore heap;
  let root = Heap.get_root heap' in
  Alcotest.(check bool) "audit ok after crash" true
    (Queue_lf.check_plain heap' ~root = Ok ());
  let q' = Queue_lf.attach heap' root in
  let remaining = Queue_lf.to_list q' in
  let all = List.sort compare (!consumed @ remaining) in
  Alcotest.(check bool) "no duplicates after crash" true
    (List.length (List.sort_uniq compare all) = List.length all);
  (* The dequeued dummies the consumer orphaned are reclaimed by GC. *)
  let gc, _ = Heap_gc.collect heap' in
  Alcotest.(check bool) "GC reclaimed dequeued nodes" true
    (gc.Heap_gc.freed_objects >= List.length !consumed - 1);
  (* The queue is usable immediately. *)
  Queue_lf.enqueue q' 424242L;
  Alcotest.(check bool) "usable after recovery" true
    (List.mem 424242L (Queue_lf.to_list q'))

let suite =
  ( "queue",
    [
      case "fifo basics" test_fifo_basics;
      case "attach" test_attach;
      case "structural audit" test_check_plain;
      prop_queue_vs_model;
      case "concurrent producers/consumers conserve values"
        test_concurrent_producers_consumers;
      slow_case "crash recovery with zero mechanism (Section 4.1)"
        test_crash_recovery_zero_mechanism;
    ] )
