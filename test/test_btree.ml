(* Tests for the Atlas-fortified B+-tree: structural correctness under
   heavy splitting, model-based random testing, concurrency, and crash
   recovery of interrupted multi-node splits. *)

open Helpers
module Btree = Tsp_maps.Btree
module Map_intf = Tsp_maps.Map_intf
module Rt = Atlas.Runtime
module Mode = Atlas.Mode
module Heap_gc = Pheap.Heap_gc

let btree_env ?(mode = Mode.Log_only) ?(threads = 2) ?(order = Btree.default_order) () =
  let pmem = desktop_pmem ~region_mib:8 () in
  let size = (Pmem.config pmem).Config.region_size in
  let log_base = size - (1024 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  let atlas =
    Rt.create ~mode ~heap ~log_base ~log_size:(1024 * 1024)
      ~num_threads:threads ()
  in
  let sched = Scheduler.create ~seed:5 () in
  let bt = Btree.create heap ~atlas ~sched ~order () in
  (pmem, heap, atlas, sched, bt)

let in_thread pmem sched body =
  ignore (Scheduler.spawn sched body : int);
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Fun.protect
    ~finally:(fun () -> Pmem.clear_step_hook pmem)
    (fun () ->
      match Scheduler.run sched with
      | Scheduler.Completed -> ()
      | _ -> Alcotest.fail "unexpected scheduler outcome")

let audit heap bt =
  match Btree.check_plain heap ~root:(Btree.root bt) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "structural audit failed: %s" e

let test_basics () =
  let pmem, heap, _, sched, bt = btree_env () in
  let ops = Btree.ops bt in
  in_thread pmem sched (fun () ->
      Alcotest.(check (option int64)) "empty" None (ops.Map_intf.get ~tid:0 ~key:1);
      ops.Map_intf.set ~tid:0 ~key:5 ~value:50L;
      ops.Map_intf.set ~tid:0 ~key:1 ~value:10L;
      ops.Map_intf.set ~tid:0 ~key:3 ~value:30L;
      Alcotest.(check (option int64)) "get 3" (Some 30L)
        (ops.Map_intf.get ~tid:0 ~key:3);
      ops.Map_intf.set ~tid:0 ~key:3 ~value:31L;
      Alcotest.(check (option int64)) "overwrite" (Some 31L)
        (ops.Map_intf.get ~tid:0 ~key:3);
      ops.Map_intf.incr ~tid:0 ~key:3 ~by:9L;
      Alcotest.(check (option int64)) "incr" (Some 40L)
        (ops.Map_intf.get ~tid:0 ~key:3);
      ops.Map_intf.incr ~tid:0 ~key:100 ~by:7L;
      Alcotest.(check (option int64)) "incr inserts" (Some 7L)
        (ops.Map_intf.get ~tid:0 ~key:100));
  audit heap bt;
  Alcotest.(check int) "size" 4 (Btree.size_plain heap ~root:(Btree.root bt))

let test_splits_grow_height () =
  let pmem, heap, _, sched, bt = btree_env ~order:4 () in
  let ops = Btree.ops bt in
  Alcotest.(check int) "height 1" 1 (Btree.height heap ~root:(Btree.root bt));
  in_thread pmem sched (fun () ->
      for k = 1 to 100 do
        ops.Map_intf.set ~tid:0 ~key:k ~value:(Int64.of_int k)
      done);
  audit heap bt;
  Alcotest.(check bool) "height grew" true
    (Btree.height heap ~root:(Btree.root bt) >= 3);
  Alcotest.(check int) "all present" 100
    (Btree.size_plain heap ~root:(Btree.root bt));
  (* In-order traversal. *)
  let keys =
    List.rev (Btree.fold_plain heap ~root:(Btree.root bt) (fun k _ acc -> k :: acc) [])
  in
  Alcotest.(check (list int)) "sorted 1..100" (List.init 100 (fun i -> i + 1)) keys

let test_descending_and_random_orders () =
  List.iter
    (fun seed ->
      let pmem, heap, _, sched, bt = btree_env ~order:5 () in
      let ops = Btree.ops bt in
      let rng = Rng.create ~seed in
      in_thread pmem sched (fun () ->
          if seed = 0 then
            for k = 200 downto 1 do
              ops.Map_intf.set ~tid:0 ~key:k ~value:(Int64.of_int k)
            done
          else
            for _ = 1 to 300 do
              let k = Rng.int rng 500 in
              ops.Map_intf.set ~tid:0 ~key:k ~value:(Int64.of_int k)
            done);
      audit heap bt)
    [ 0; 1; 2; 3 ]

let test_remove () =
  let pmem, heap, _, sched, bt = btree_env ~order:4 () in
  let ops = Btree.ops bt in
  in_thread pmem sched (fun () ->
      for k = 1 to 50 do
        ops.Map_intf.set ~tid:0 ~key:k ~value:(Int64.of_int k)
      done;
      Alcotest.(check bool) "remove present" true
        (ops.Map_intf.remove ~tid:0 ~key:25);
      Alcotest.(check bool) "remove absent" false
        (ops.Map_intf.remove ~tid:0 ~key:25);
      Alcotest.(check (option int64)) "gone" None (ops.Map_intf.get ~tid:0 ~key:25);
      Alcotest.(check (option int64)) "neighbour kept" (Some 26L)
        (ops.Map_intf.get ~tid:0 ~key:26);
      (* Re-insert after delete must work despite stale separators. *)
      ops.Map_intf.set ~tid:0 ~key:25 ~value:99L;
      Alcotest.(check (option int64)) "reinserted" (Some 99L)
        (ops.Map_intf.get ~tid:0 ~key:25));
  audit heap bt

let test_attach () =
  let pmem, heap, atlas, sched, bt = btree_env () in
  let ops = Btree.ops bt in
  in_thread pmem sched (fun () -> ops.Map_intf.set ~tid:0 ~key:1 ~value:1L);
  let sched2 = Scheduler.create () in
  let bt2 = Btree.attach heap ~atlas ~sched:sched2 (Btree.root bt) in
  Alcotest.(check int) "order preserved" (Btree.order bt) (Btree.order bt2);
  check_raises_invalid "attach to non-header" (fun () ->
      ignore (Btree.attach heap ~atlas ~sched:sched2 64))

let test_set_plain_interops () =
  let pmem, heap, _, sched, bt = btree_env ~order:4 () in
  for k = 1 to 60 do
    Btree.set_plain bt ~key:k ~value:(Int64.of_int (k * 2))
  done;
  audit heap bt;
  let ops = Btree.ops bt in
  in_thread pmem sched (fun () ->
      Alcotest.(check (option int64)) "plain insert visible" (Some 40L)
        (ops.Map_intf.get ~tid:0 ~key:20))

let test_concurrent_writers () =
  let pmem, heap, _, sched, bt = btree_env ~threads:8 () in
  let ops = Btree.ops bt in
  for tid = 0 to 7 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 0 to 49 do
             ops.Map_intf.set ~tid ~key:((100 * tid) + i) ~value:(Int64.of_int tid)
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  ignore (Scheduler.run sched);
  Pmem.clear_step_hook pmem;
  audit heap bt;
  Alcotest.(check int) "all inserted" 400
    (Btree.size_plain heap ~root:(Btree.root bt))

let prop_btree_vs_model =
  qcheck ~count:40 "B+-tree behaves like Map"
    QCheck2.Gen.(
      list_size (int_range 1 150)
        (pair (int_range 0 3) (pair (int_range 0 60) (int_range (-50) 50))))
    (fun script ->
      let pmem, heap, _, sched, bt = btree_env ~order:4 () in
      let ops = Btree.ops bt in
      let module IM = Map.Make (Int) in
      let model = ref IM.empty in
      let ok = ref true in
      in_thread pmem sched (fun () ->
          List.iter
            (fun (op, (key, v)) ->
              let v64 = Int64.of_int v in
              match op with
              | 0 ->
                  ops.Map_intf.set ~tid:0 ~key ~value:v64;
                  model := IM.add key v64 !model
              | 1 ->
                  ops.Map_intf.incr ~tid:0 ~key ~by:v64;
                  let old = Option.value (IM.find_opt key !model) ~default:0L in
                  model := IM.add key (Int64.add old v64) !model
              | 2 ->
                  let got = ops.Map_intf.remove ~tid:0 ~key in
                  if got <> IM.mem key !model then ok := false;
                  model := IM.remove key !model
              | _ ->
                  if ops.Map_intf.get ~tid:0 ~key <> IM.find_opt key !model then
                    ok := false)
            script);
      let dump =
        List.rev
          (Btree.fold_plain heap ~root:(Btree.root bt)
             (fun k v acc -> (k, v) :: acc)
             [])
      in
      !ok
      && dump = IM.bindings !model
      && Btree.check_plain heap ~root:(Btree.root bt) = Ok ())

let test_crash_mid_split_recovers () =
  (* Crash repeatedly while eight writers force splits; rollback must
     always restore a structurally valid tree with untorn values. *)
  let crashes_checked = ref 0 in
  List.iter
    (fun crash_at ->
      let pmem, heap, _, sched, bt = btree_env ~order:4 ~threads:8 () in
      for k = 0 to 199 do
        Btree.set_plain bt ~key:(k * 10) ~value:(Int64.of_int k)
      done;
      Pmem.persist_all pmem;
      let ops = Btree.ops bt in
      for tid = 0 to 7 do
        let rng = Rng.create ~seed:(tid + (7 * crash_at)) in
        ignore
          (Scheduler.spawn sched (fun () ->
               for _ = 1 to 300 do
                 let k = Rng.int rng 4000 in
                 ops.Map_intf.set ~tid ~key:k ~value:(Int64.of_int k)
               done)
            : int)
      done;
      Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
      let outcome = Scheduler.run ~crash_at_step:crash_at sched in
      Pmem.clear_step_hook pmem;
      (match outcome with
      | Scheduler.Crashed _ -> incr crashes_checked
      | _ -> Alcotest.fail "crash point not reached");
      crash pmem FM.Full_rescue;
      Pmem.recover pmem;
      let size = (Pmem.config pmem).Config.region_size in
      let log_base = size - (1024 * 1024) in
      let heap' = Heap.attach pmem ~base:0 ~size:log_base in
      ignore heap;
      ignore (Atlas.Recovery.run ~heap:heap' ~log_base () : Atlas.Recovery.report);
      ignore (Heap_gc.collect heap' : Heap_gc.stats * Heap_gc.quarantine);
      Alcotest.(check bool) "heap audit" true (Heap_gc.verify heap' = Ok ());
      (match Btree.check_plain heap' ~root:(Heap.get_root heap') with
      | Ok () -> ()
      | Error e -> Alcotest.failf "tree corrupt after crash %d: %s" crash_at e);
      (* Values are self-describing (value = key): detect torn writes. *)
      Btree.fold_plain heap' ~root:(Heap.get_root heap')
        (fun k v () ->
          if k mod 10 = 0 && k / 10 < 200 then
            (* preloaded keys: either original payload or an overwrite *)
            Alcotest.(check bool) "sane value" true
              (Int64.to_int v = k || Int64.to_int v = k / 10)
          else Alcotest.(check bool) "untorn" true (Int64.to_int v = k))
        ())
    [ 4_000; 9_000; 16_000; 25_000; 40_000 ];
  Alcotest.(check int) "five crashes exercised" 5 !crashes_checked

let suite =
  ( "btree",
    [
      case "basics: set/get/incr/overwrite" test_basics;
      case "splits grow height; traversal sorted" test_splits_grow_height;
      case "descending and random insert orders" test_descending_and_random_orders;
      case "remove and reinsert" test_remove;
      case "attach" test_attach;
      case "plain setup interoperates" test_set_plain_interops;
      case "concurrent writers" test_concurrent_writers;
      prop_btree_vs_model;
      slow_case "crash mid-split always recovers (5 crash points)"
        test_crash_mid_split_recovers;
    ] )
