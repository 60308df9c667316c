(* Tests for the two map implementations: functional correctness
   (including model-based random testing), concurrency behaviour under
   the deterministic scheduler, and crash-recovery of each. *)

open Helpers
module Hashmap = Tsp_maps.Chained_hashmap
module Skiplist = Tsp_maps.Lockfree_skiplist
module Map_intf = Tsp_maps.Map_intf
module Rt = Atlas.Runtime
module Mode = Atlas.Mode
module Heap_gc = Pheap.Heap_gc

(* Environments.  Maps need a scheduler-driven context even for
   single-threaded tests, because hash map operations lock mutexes. *)

let hash_env ?(mode = Mode.Log_only) ?(threads = 2) ?(n_buckets = 64) () =
  let pmem = desktop_pmem ~region_mib:4 () in
  let size = (Pmem.config pmem).Config.region_size in
  let log_base = size - (512 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  let atlas =
    Rt.create ~mode ~heap ~log_base ~log_size:(512 * 1024)
      ~num_threads:threads ()
  in
  let sched = Scheduler.create ~seed:5 () in
  let hm = Hashmap.create heap ~atlas ~sched ~n_buckets () in
  (pmem, heap, atlas, sched, hm)

(* Run map operations inside a single simulated thread. *)
let in_thread pmem sched body =
  ignore (Scheduler.spawn sched body : int);
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Fun.protect
    ~finally:(fun () -> Pmem.clear_step_hook pmem)
    (fun () ->
      match Scheduler.run sched with
      | Scheduler.Completed -> ()
      | Scheduler.Crashed _ -> Alcotest.fail "unexpected crash"
      | Scheduler.Deadlocked _ -> Alcotest.fail "unexpected deadlock")

let skip_env ?(threads = 4) ?nvtraverse () =
  let pmem = desktop_pmem ~region_mib:4 () in
  let size = (Pmem.config pmem).Config.region_size in
  let heap = Heap.create pmem ~base:0 ~size in
  let sl = Skiplist.create heap ?nvtraverse ~num_threads:threads ~seed:3 () in
  (pmem, heap, sl)

(* --- Hash map: functional behaviour --- *)

let test_hash_set_get () =
  let pmem, _, _, sched, hm = hash_env () in
  let ops = Hashmap.ops hm in
  in_thread pmem sched (fun () ->
      ops.Map_intf.set ~tid:0 ~key:1 ~value:10L;
      ops.Map_intf.set ~tid:0 ~key:2 ~value:20L;
      Alcotest.(check (option int64)) "get 1" (Some 10L)
        (ops.Map_intf.get ~tid:0 ~key:1);
      Alcotest.(check (option int64)) "get 2" (Some 20L)
        (ops.Map_intf.get ~tid:0 ~key:2);
      Alcotest.(check (option int64)) "absent" None
        (ops.Map_intf.get ~tid:0 ~key:3);
      ops.Map_intf.set ~tid:0 ~key:1 ~value:11L;
      Alcotest.(check (option int64)) "overwrite" (Some 11L)
        (ops.Map_intf.get ~tid:0 ~key:1))

let test_hash_incr () =
  let pmem, _, _, sched, hm = hash_env () in
  let ops = Hashmap.ops hm in
  in_thread pmem sched (fun () ->
      ops.Map_intf.incr ~tid:0 ~key:5 ~by:3L (* insert-if-absent *);
      ops.Map_intf.incr ~tid:0 ~key:5 ~by:4L;
      Alcotest.(check (option int64)) "accumulated" (Some 7L)
        (ops.Map_intf.get ~tid:0 ~key:5))

let test_hash_remove () =
  (* Two buckets force long chains: removal must unlink head, middle and
     tail positions correctly. *)
  let pmem, heap, _, sched, hm = hash_env ~n_buckets:2 () in
  let ops = Hashmap.ops hm in
  in_thread pmem sched (fun () ->
      List.iter
        (fun k -> ops.Map_intf.set ~tid:0 ~key:k ~value:(Int64.of_int k))
        [ 1; 2; 3; 4; 5; 6 ];
      Alcotest.(check bool) "remove present" true
        (ops.Map_intf.remove ~tid:0 ~key:3);
      Alcotest.(check bool) "remove again" false
        (ops.Map_intf.remove ~tid:0 ~key:3);
      Alcotest.(check (option int64)) "gone" None (ops.Map_intf.get ~tid:0 ~key:3);
      List.iter
        (fun k ->
          Alcotest.(check (option int64))
            (Printf.sprintf "key %d survives" k)
            (Some (Int64.of_int k))
            (ops.Map_intf.get ~tid:0 ~key:k))
        [ 1; 2; 4; 5; 6 ]);
  Alcotest.(check int) "size" 5 (Hashmap.size_plain heap ~root:(Hashmap.root hm))

let test_hash_fold_and_size () =
  let pmem, heap, _, sched, hm = hash_env () in
  let ops = Hashmap.ops hm in
  in_thread pmem sched (fun () ->
      for k = 1 to 20 do
        ops.Map_intf.set ~tid:0 ~key:k ~value:(Int64.of_int (k * k))
      done);
  let root = Hashmap.root hm in
  Alcotest.(check int) "size" 20 (Hashmap.size_plain heap ~root);
  let sum =
    Hashmap.fold_plain heap ~root (fun _ v acc -> Int64.add acc v) 0L
  in
  Alcotest.check int64 "sum of squares" 2870L sum

let test_hash_attach () =
  let pmem, heap, atlas, sched, hm = hash_env () in
  let ops = Hashmap.ops hm in
  in_thread pmem sched (fun () -> ops.Map_intf.set ~tid:0 ~key:9 ~value:99L);
  let sched2 = Scheduler.create () in
  let hm2 = Hashmap.attach heap ~atlas ~sched:sched2 (Hashmap.root hm) in
  Alcotest.(check int) "buckets preserved" (Hashmap.n_buckets hm)
    (Hashmap.n_buckets hm2);
  Alcotest.(check int) "same size" 1
    (Hashmap.size_plain heap ~root:(Hashmap.root hm2));
  check_raises_invalid "attach to a non-header" (fun () ->
      ignore (Hashmap.attach heap ~atlas ~sched:sched2 64))

let test_hash_set_plain_matches_ops () =
  let pmem, heap, _, sched, hm = hash_env () in
  Hashmap.set_plain hm ~key:1 ~value:5L;
  Hashmap.set_plain hm ~key:1 ~value:6L;
  Hashmap.set_plain hm ~key:2 ~value:7L;
  let ops = Hashmap.ops hm in
  in_thread pmem sched (fun () ->
      Alcotest.(check (option int64)) "plain insert visible" (Some 6L)
        (ops.Map_intf.get ~tid:0 ~key:1));
  Alcotest.(check int) "size 2" 2 (Hashmap.size_plain heap ~root:(Hashmap.root hm))

let test_hash_transfer () =
  let pmem, heap, _, sched, hm = hash_env ~n_buckets:2048 ~threads:2 () in
  Hashmap.set_plain hm ~key:100 ~value:50L;
  Hashmap.set_plain hm ~key:200 ~value:10L;
  in_thread pmem sched (fun () ->
      Alcotest.(check bool) "transfer ok" true
        (Hashmap.transfer hm ~tid:0 ~debit:100 ~credit:200 ~amount:30L);
      Alcotest.(check bool) "insufficient funds" false
        (Hashmap.transfer hm ~tid:0 ~debit:100 ~credit:200 ~amount:30L);
      Alcotest.(check bool) "missing account" false
        (Hashmap.transfer hm ~tid:0 ~debit:100 ~credit:999 ~amount:1L));
  let root = Hashmap.root hm in
  let v k = Hashmap.fold_plain heap ~root (fun k' v acc -> if k' = k then v else acc) 0L in
  Alcotest.check int64 "debited" 20L (v 100);
  Alcotest.check int64 "credited" 40L (v 200)

let test_hash_concurrent_counters () =
  (* Eight threads hammer one key with increments; the mutex must make
     the read-modify-write atomic. *)
  let pmem, heap, _, sched, hm = hash_env ~threads:8 () in
  let ops = Hashmap.ops hm in
  Hashmap.set_plain hm ~key:1 ~value:0L;
  for tid = 0 to 7 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for _ = 1 to 50 do
             ops.Map_intf.incr ~tid ~key:1 ~by:1L
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  ignore (Scheduler.run sched);
  Pmem.clear_step_hook pmem;
  let root = Hashmap.root hm in
  let v =
    Hashmap.fold_plain heap ~root (fun k v acc -> if k = 1 then v else acc) 0L
  in
  Alcotest.check int64 "no lost increments" 400L v

let test_hash_wide_values () =
  let pmem = desktop_pmem ~region_mib:4 () in
  let size = (Pmem.config pmem).Config.region_size in
  let log_base = size - (512 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  let atlas =
    Rt.create ~mode:Mode.Log_only ~heap ~log_base ~log_size:(512 * 1024)
      ~num_threads:2 ()
  in
  let sched = Scheduler.create () in
  let hm = Hashmap.create heap ~atlas ~sched ~n_buckets:64 ~value_words:4 () in
  Alcotest.(check int) "width recorded" 4 (Hashmap.value_words hm);
  in_thread pmem sched (fun () ->
      Hashmap.set_wide hm ~tid:0 ~key:7 ~values:[| 1L; 2L; 3L; 4L |];
      Alcotest.(check (option (array int64))) "wide roundtrip"
        (Some [| 1L; 2L; 3L; 4L |])
        (Hashmap.get_wide hm ~tid:0 ~key:7);
      Alcotest.(check (option (array int64))) "absent" None
        (Hashmap.get_wide hm ~tid:0 ~key:8);
      Hashmap.set_wide hm ~tid:0 ~key:7 ~values:[| 9L; 9L; 9L; 9L |];
      Alcotest.(check (option (array int64))) "overwrite all words"
        (Some [| 9L; 9L; 9L; 9L |])
        (Hashmap.get_wide hm ~tid:0 ~key:7);
      Alcotest.check_raises "width checked"
        (Invalid_argument "Chained_hashmap.set_wide: wrong width") (fun () ->
          Hashmap.set_wide hm ~tid:0 ~key:1 ~values:[| 1L |]));
  (* attach rediscovers the width from the persistent header *)
  let sched2 = Scheduler.create () in
  let hm2 = Hashmap.attach heap ~atlas ~sched:sched2 (Hashmap.root hm) in
  Alcotest.(check int) "attach recovers width" 4 (Hashmap.value_words hm2);
  let dump =
    Hashmap.fold_wide_plain heap ~root:(Hashmap.root hm)
      (fun k vs acc -> (k, vs) :: acc)
      []
  in
  Alcotest.(check int) "one wide entry" 1 (List.length dump)

(* Model-based random testing against Stdlib.Hashtbl. *)
let prop_hash_vs_model =
  qcheck ~count:60 "hash map behaves like Hashtbl"
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (pair (int_range 0 3) (pair (int_range 0 40) (int_range (-50) 50))))
    (fun script ->
      let pmem, heap, _, sched, hm = hash_env ~n_buckets:8 () in
      let ops = Hashmap.ops hm in
      let model : (int, int64) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      in_thread pmem sched (fun () ->
          List.iter
            (fun (op, (key, v)) ->
              let v64 = Int64.of_int v in
              match op with
              | 0 ->
                  ops.Map_intf.set ~tid:0 ~key ~value:v64;
                  Hashtbl.replace model key v64
              | 1 ->
                  ops.Map_intf.incr ~tid:0 ~key ~by:v64;
                  let old = Option.value (Hashtbl.find_opt model key) ~default:0L in
                  Hashtbl.replace model key (Int64.add old v64)
              | 2 ->
                  let got = ops.Map_intf.remove ~tid:0 ~key in
                  let expected = Hashtbl.mem model key in
                  Hashtbl.remove model key;
                  if got <> expected then ok := false
              | _ ->
                  let got = ops.Map_intf.get ~tid:0 ~key in
                  let expected = Hashtbl.find_opt model key in
                  if got <> expected then ok := false)
            script);
      let dump =
        Hashmap.fold_plain heap ~root:(Hashmap.root hm)
          (fun k v acc -> (k, v) :: acc)
          []
        |> List.sort compare
      in
      let model_dump =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
      in
      !ok && dump = model_dump)

(* --- Skip list: functional behaviour --- *)

let test_skip_set_get () =
  let pmem, _, sl = skip_env () in
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create () in
  in_thread pmem sched (fun () ->
      ops.Map_intf.set ~tid:0 ~key:10 ~value:1L;
      ops.Map_intf.set ~tid:0 ~key:5 ~value:2L;
      ops.Map_intf.set ~tid:0 ~key:20 ~value:3L;
      Alcotest.(check (option int64)) "get 5" (Some 2L)
        (ops.Map_intf.get ~tid:0 ~key:5);
      Alcotest.(check (option int64)) "get 10" (Some 1L)
        (ops.Map_intf.get ~tid:0 ~key:10);
      Alcotest.(check (option int64)) "absent" None
        (ops.Map_intf.get ~tid:0 ~key:15);
      ops.Map_intf.set ~tid:0 ~key:10 ~value:9L;
      Alcotest.(check (option int64)) "overwrite" (Some 9L)
        (ops.Map_intf.get ~tid:0 ~key:10))

let test_skip_sorted_fold () =
  let pmem, heap, sl = skip_env () in
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create () in
  in_thread pmem sched (fun () ->
      List.iter
        (fun k -> ops.Map_intf.set ~tid:0 ~key:k ~value:(Int64.of_int k))
        [ 42; 7; 19; 3; 99; 56 ]);
  let root = Skiplist.root sl in
  let keys =
    List.rev (Skiplist.fold_plain heap ~root (fun k _ acc -> k :: acc) [])
  in
  Alcotest.(check (list int)) "sorted traversal" [ 3; 7; 19; 42; 56; 99 ] keys;
  Alcotest.(check bool) "structure check" true
    (Skiplist.check_plain heap ~root = Ok ())

let test_skip_remove () =
  let pmem, heap, sl = skip_env () in
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create () in
  in_thread pmem sched (fun () ->
      List.iter
        (fun k -> ops.Map_intf.set ~tid:0 ~key:k ~value:0L)
        [ 1; 2; 3; 4 ];
      Alcotest.(check bool) "remove present" true
        (ops.Map_intf.remove ~tid:0 ~key:2);
      Alcotest.(check bool) "remove absent" false
        (ops.Map_intf.remove ~tid:0 ~key:2);
      Alcotest.(check (option int64)) "gone" None (ops.Map_intf.get ~tid:0 ~key:2);
      Alcotest.(check (option int64)) "neighbours intact" (Some 0L)
        (ops.Map_intf.get ~tid:0 ~key:3));
  Alcotest.(check int) "size" 3 (Skiplist.size_plain heap ~root:(Skiplist.root sl))

let test_skip_incr () =
  let pmem, _, sl = skip_env () in
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create () in
  in_thread pmem sched (fun () ->
      ops.Map_intf.incr ~tid:0 ~key:7 ~by:5L;
      ops.Map_intf.incr ~tid:0 ~key:7 ~by:6L;
      Alcotest.(check (option int64)) "sum" (Some 11L)
        (ops.Map_intf.get ~tid:0 ~key:7))

let test_skip_attach () =
  let _, heap, sl = skip_env () in
  Skiplist.set_plain sl ~key:1 ~value:1L;
  let sl2 = Skiplist.attach heap ~num_threads:2 ~seed:9 (Skiplist.root sl) in
  Alcotest.(check int) "levels preserved" (Skiplist.max_level sl)
    (Skiplist.max_level sl2);
  check_raises_invalid "attach to a non-node" (fun () ->
      ignore (Skiplist.attach heap ~num_threads:2 ~seed:9 64))

(* [random_level] indexes one level generator per thread: a list for no
   thread is refused before it allocates anything. *)
let test_skip_needs_a_thread () =
  let _, heap, sl = skip_env () in
  let root = Skiplist.root sl in
  check_raises_invalid "create for no thread" (fun () ->
      ignore (Skiplist.create heap ~num_threads:0 ~seed:3 ()));
  check_raises_invalid "attach for no thread" (fun () ->
      ignore (Skiplist.attach heap ~num_threads:0 ~seed:3 root));
  Alcotest.(check int) "root untouched" root (Heap.get_root heap)

let test_skip_concurrent_inserts () =
  let pmem, heap, sl = skip_env ~threads:8 () in
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create ~seed:17 () in
  for tid = 0 to 7 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 0 to 39 do
             ops.Map_intf.set ~tid ~key:((100 * tid) + i) ~value:(Int64.of_int tid)
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  ignore (Scheduler.run sched);
  Pmem.clear_step_hook pmem;
  let root = Skiplist.root sl in
  Alcotest.(check int) "all inserted" 320 (Skiplist.size_plain heap ~root);
  Alcotest.(check bool) "still sorted" true (Skiplist.check_plain heap ~root = Ok ())

let test_skip_concurrent_same_key () =
  (* All threads race to insert the same key, then increment it: exactly
     one node must win and no increment may be lost. *)
  let pmem, heap, sl = skip_env ~threads:8 () in
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create ~seed:23 () in
  for tid = 0 to 7 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for _ = 1 to 25 do
             ops.Map_intf.incr ~tid ~key:777 ~by:1L
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  ignore (Scheduler.run sched);
  Pmem.clear_step_hook pmem;
  let root = Skiplist.root sl in
  Alcotest.(check int) "one node" 1 (Skiplist.size_plain heap ~root);
  let v = Skiplist.fold_plain heap ~root (fun _ v _ -> v) 0L in
  Alcotest.check int64 "no lost updates" 200L v

let test_skip_level_distribution () =
  (* Geometric levels with p = 1/2: the mean should be near 2 and the
     maximum bounded by max_level. *)
  let _, heap, _ = skip_env () in
  ignore heap;
  let pmem2 = desktop_pmem ~region_mib:4 () in
  let heap2 = Heap.create pmem2 ~base:0 ~size:(1024 * 1024) in
  let sl = Skiplist.create heap2 ~num_threads:1 ~seed:1 () in
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create () in
  in_thread pmem2 sched (fun () ->
      for k = 1 to 500 do
        ops.Map_intf.set ~tid:0 ~key:k ~value:0L
      done);
  (* Level of each node = words - 3; read via the object headers. *)
  let total = ref 0 and n = ref 0 and max_lv = ref 0 in
  Heap.iter_blocks heap2 (fun ~addr:_ ~kind ~words ->
      if kind = Skiplist.node_kind && words - 3 < Skiplist.max_level sl then begin
        let lv = words - 3 in
        total := !total + lv;
        incr n;
        if lv > !max_lv then max_lv := lv
      end);
  let mean = float_of_int !total /. float_of_int !n in
  Alcotest.(check bool)
    (Printf.sprintf "mean level %.2f in [1.6, 2.4]" mean)
    true
    (mean > 1.6 && mean < 2.4);
  Alcotest.(check bool) "bounded" true (!max_lv <= Skiplist.max_level sl)

let prop_skip_vs_model =
  qcheck ~count:40 "skip list behaves like Map"
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (pair (int_range 0 3) (pair (int_range 0 30) (int_range (-50) 50))))
    (fun script ->
      let pmem, heap, sl = skip_env () in
      let ops = Skiplist.ops sl in
      let module IM = Map.Make (Int) in
      let model = ref IM.empty in
      let ok = ref true in
      let sched = Scheduler.create () in
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
          (Skiplist.fold_plain heap ~root:(Skiplist.root sl)
             (fun k v acc -> (k, v) :: acc)
             [])
      in
      !ok && dump = IM.bindings !model)

(* --- The commit-free newcomers: NVTraverse and delay-free --- *)

module Delayfree = Tsp_maps.Delayfree_map

let delayfree_env () =
  let pmem = desktop_pmem ~region_mib:4 () in
  let size = (Pmem.config pmem).Config.region_size in
  let heap = Heap.create pmem ~base:0 ~size in
  let t =
    Delayfree.create heap ~capacity:(Delayfree.capacity_for ~n_buckets:64) ()
  in
  (pmem, heap, t)

(* One generated script, interpreted against Map.Make(Int) — the same
   oracle discipline as [prop_skip_vs_model], aimed at each new
   variant.  [dump] at the end must equal the model's bindings, so a
   lost update, duplicate slot or broken unlink cannot hide. *)
let run_script_vs_model pmem ops dump script =
  let module IM = Map.Make (Int) in
  let model = ref IM.empty in
  let ok = ref true in
  let sched = Scheduler.create () in
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
  !ok && dump () = IM.bindings !model

let script_gen =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (pair (int_range 0 3) (pair (int_range 0 30) (int_range (-50) 50))))

let prop_nvt_vs_model =
  qcheck ~count:40 "nvtraverse skip list behaves like Map" script_gen
    (fun script ->
      let pmem, heap, sl = skip_env ~nvtraverse:true () in
      let dump () =
        List.rev
          (Skiplist.fold_plain heap ~root:(Skiplist.root sl)
             (fun k v acc -> (k, v) :: acc)
             [])
      in
      run_script_vs_model pmem (Skiplist.ops sl) dump script)

(* The two skip-list disciplines differ only in flushes and fences.
   Each script runs single-threaded on a plain list and on an
   NVTraverse list built from the same seed, and every operation's
   device-counter deltas are compared (taken after [create], which
   persists NVTraverse's sentinels).  Stores and CASes agree exactly;
   NVTraverse loads one word more per insert, the header [flush_span]
   reads to size the new node's span.  The plain list never flushes or
   fences.  NVTraverse pays 1 flush + 1 fence to overwrite, increment
   or delete a present key, 2-3 flushes + 2 fences to insert, and
   nothing for a get or a remove of an absent key. *)
type psync = {
  loads : int;
  stores : int;
  cas_ops : int;
  flushes : int;
  fences : int;
}

let psync_of (s : Nvm.Stats.t) =
  {
    loads = s.loads;
    stores = s.stores;
    cas_ops = s.cas_ops;
    flushes = s.flushes;
    fences = s.fences;
  }

let psync_delta a b =
  {
    loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    cas_ops = b.cas_ops - a.cas_ops;
    flushes = b.flushes - a.flushes;
    fences = b.fences - a.fences;
  }

let prop_skip_disciplines =
  qcheck ~count:40 "skip list: disciplines differ only in flushes and fences"
    script_gen (fun script ->
      let run nvtraverse =
        let pmem, heap, sl = skip_env ~nvtraverse () in
        let ops = Skiplist.ops sl in
        let deltas = ref [] in
        in_thread pmem (Scheduler.create ()) (fun () ->
            List.iter
              (fun (op, (key, v)) ->
                let before = psync_of (Pmem.stats pmem) in
                let v64 = Int64.of_int v in
                (match op with
                | 0 -> ops.Map_intf.set ~tid:0 ~key ~value:v64
                | 1 -> ops.Map_intf.incr ~tid:0 ~key ~by:v64
                | 2 -> ignore (ops.Map_intf.remove ~tid:0 ~key : bool)
                | _ -> ignore (ops.Map_intf.get ~tid:0 ~key : int64 option));
                deltas :=
                  psync_delta before (psync_of (Pmem.stats pmem)) :: !deltas)
              script);
        let dump =
          Skiplist.fold_plain heap ~root:(Skiplist.root sl)
            (fun k v acc -> (k, v) :: acc)
            []
        in
        (dump, List.rev !deltas)
      in
      let plain_dump, plain = run false and nvt_dump, nvt = run true in
      let present = Hashtbl.create 32 in
      let op_ok (op, (key, _)) p n =
        let was_present = Hashtbl.mem present key in
        (match op with
        | 0 | 1 -> Hashtbl.replace present key ()
        | 2 -> Hashtbl.remove present key
        | _ -> ());
        let insert = op <= 1 && not was_present in
        p.flushes = 0 && p.fences = 0
        && n.stores = p.stores
        && n.cas_ops = p.cas_ops
        && n.loads = p.loads + Bool.to_int insert
        &&
        if insert then (n.flushes = 2 || n.flushes = 3) && n.fences = 2
        else if op <= 2 && was_present then n.flushes = 1 && n.fences = 1
        else n.flushes = 0 && n.fences = 0
      in
      plain_dump = nvt_dump
      && List.for_all2
           (fun (op, p) n -> op_ok op p n)
           (List.combine script plain) nvt)

let prop_delayfree_vs_model =
  qcheck ~count:40 "delay-free table behaves like Map" script_gen
    (fun script ->
      let pmem, heap, t = delayfree_env () in
      let dump () =
        List.sort compare
          (Delayfree.fold_plain heap ~root:(Delayfree.root t)
             (fun k v acc -> (k, v) :: acc)
             [])
      in
      run_script_vs_model pmem (Delayfree.ops t) dump script)

(* --- Crash recovery of each structure --- *)

let test_hash_crash_recovery () =
  let pmem, heap, _, sched, hm = hash_env ~mode:Mode.Log_only ~threads:4 () in
  Hashmap.set_plain hm ~key:0 ~value:0L;
  Pmem.persist_all pmem;
  let ops = Hashmap.ops hm in
  for tid = 0 to 3 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 1 to 200 do
             ops.Map_intf.incr ~tid ~key:0 ~by:1L;
             ops.Map_intf.set ~tid ~key:((tid * 1000) + i) ~value:(Int64.of_int i)
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ~crash_at_step:30_000 sched in
  Pmem.clear_step_hook pmem;
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  crash pmem FM.Full_rescue;
  Pmem.recover pmem;
  let size = (Pmem.config pmem).Config.region_size in
  let heap' = Heap.attach pmem ~base:0 ~size:(size - (512 * 1024)) in
  ignore heap;
  let report = Atlas.Recovery.run ~heap:heap' ~log_base:(size - (512 * 1024)) () in
  let gc, _ = Heap_gc.collect heap' in
  Alcotest.(check bool) "audit passes" true (Heap_gc.verify heap' = Ok ());
  Alcotest.(check bool) "recovery examined sections" true
    (report.Atlas.Recovery.ocses >= 0);
  ignore (gc : Heap_gc.stats);
  (* Every present key maps to a sane value (rollback left no tears). *)
  let entries =
    Hashmap.fold_plain heap' ~root:(Heap.get_root heap')
      (fun k v acc -> (k, v) :: acc)
      []
  in
  Alcotest.(check bool) "dump non-empty" true (List.length entries >= 1);
  List.iter
    (fun (k, v) ->
      if k > 0 then
        Alcotest.(check bool) "value = key payload" true
          (Int64.to_int v = k mod 1000))
    entries

let test_skip_crash_recovery_and_gc () =
  let pmem, heap, sl = skip_env ~threads:4 () in
  Pmem.persist_all pmem;
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create ~seed:31 () in
  for tid = 0 to 3 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 1 to 300 do
             ops.Map_intf.set ~tid ~key:((1000 * tid) + i) ~value:(Int64.of_int i)
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ~crash_at_step:25_000 sched in
  Pmem.clear_step_hook pmem;
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  crash pmem FM.Full_rescue;
  Pmem.recover pmem;
  let size = (Pmem.config pmem).Config.region_size in
  let heap' = Heap.attach pmem ~base:0 ~size in
  ignore heap;
  let root = Heap.get_root heap' in
  Alcotest.(check bool) "consistent with zero recovery code" true
    (Skiplist.check_plain heap' ~root = Ok ());
  let gc, _ = Heap_gc.collect heap' in
  Alcotest.(check bool) "audit passes" true (Heap_gc.verify heap' = Ok ());
  (* Values of present keys are exactly what their writer stored. *)
  Skiplist.fold_plain heap' ~root
    (fun k v () ->
      Alcotest.(check bool) "no torn node" true (Int64.to_int v = k mod 1000))
    ();
  ignore (gc : Heap_gc.stats)

let test_nvt_crash_recovery () =
  (* Same shape as the plain skip-list crash test: distinct keys whose
     values are congruent to them, so any torn or lost node is visible.
     Recovery is re-attachment + GC, with zero structure-specific code —
     the NVTraverse argument is that the flushed O(1) words suffice. *)
  let pmem, heap, sl = skip_env ~nvtraverse:true () in
  Pmem.persist_all pmem;
  let ops = Skiplist.ops sl in
  let sched = Scheduler.create ~seed:31 () in
  for tid = 0 to 3 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 1 to 300 do
             ops.Map_intf.set ~tid ~key:((1000 * tid) + i) ~value:(Int64.of_int i)
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ~crash_at_step:25_000 sched in
  Pmem.clear_step_hook pmem;
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  crash pmem FM.Full_rescue;
  Pmem.recover pmem;
  let size = (Pmem.config pmem).Config.region_size in
  let heap' = Heap.attach pmem ~base:0 ~size in
  ignore heap;
  let root = Heap.get_root heap' in
  Alcotest.(check bool) "consistent with zero recovery code" true
    (Skiplist.check_plain heap' ~root = Ok ());
  ignore (Heap_gc.collect heap' : Heap_gc.stats * Heap_gc.quarantine);
  Alcotest.(check bool) "audit passes" true (Heap_gc.verify heap' = Ok ());
  Skiplist.fold_plain heap' ~root
    (fun k v () ->
      Alcotest.(check bool) "no torn node" true (Int64.to_int v = k mod 1000))
    ()

let test_delayfree_crash_repair () =
  (* Crash mid-run with contended recoverable CASes in flight, then run
     the repair scan.  Each key's value must be congruent to the key
     (increments are by the key's payload), the structure must audit,
     and a second repair must find nothing left to do (idempotence). *)
  let pmem, heap, t = delayfree_env () in
  Pmem.persist_all pmem;
  let ops = Delayfree.ops t in
  let sched = Scheduler.create ~seed:17 () in
  for tid = 0 to 3 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 1 to 200 do
             let key = i mod 16 in
             (* contended: all threads hit the same 16 keys *)
             ops.Map_intf.incr ~tid ~key ~by:(Int64.of_int (key + 1))
           done)
        : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ~crash_at_step:5_000 sched in
  Pmem.clear_step_hook pmem;
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  crash pmem FM.Full_rescue;
  Pmem.recover pmem;
  let size = (Pmem.config pmem).Config.region_size in
  let heap' = Heap.attach pmem ~base:0 ~size in
  ignore heap;
  let root = Heap.get_root heap' in
  let r1 = Delayfree.repair heap' root in
  Alcotest.(check bool) "scanned the table" true (r1.Delayfree.scanned > 0);
  Alcotest.(check bool) "structurally sound" true
    (Delayfree.check_plain heap' ~root = Ok ());
  (* Every surviving value is a sum of (key+1) increments. *)
  Delayfree.fold_plain heap' ~root
    (fun k v () ->
      Alcotest.(check bool) "value is a whole number of increments" true
        (Int64.rem v (Int64.of_int (k + 1)) = 0L))
    ();
  let r2 = Delayfree.repair heap' root in
  Alcotest.(check int) "idempotent: nothing re-executed" 0
    r2.Delayfree.reexecuted;
  Alcotest.(check int) "idempotent: nothing acked" 0 r2.Delayfree.acked;
  Alcotest.(check int) "idempotent: nothing aborted" 0 r2.Delayfree.aborted

(* --- Damaged images: the plain walks end --- *)

(* A bit flip in a recovered image can turn a next link back onto its
   own chain.  The plain folds, which recovery's read-back runs, must
   raise [Heap.Corrupt] instead of walking the cycle until memory runs
   out. *)
let test_hash_fold_cycle () =
  let _, heap, _, _, hm = hash_env ~n_buckets:1 () in
  List.iter (fun k -> Hashmap.set_plain hm ~key:k ~value:1L) [ 1; 2; 3 ];
  let root = Hashmap.root hm in
  let table = Heap.load_field_int heap root 1 in
  let head = Heap.load_field_int heap table 0 in
  (* field 1 of a chain node is its next link *)
  Heap.store_field_int heap head 1 head;
  check_raises_corrupt "hash chain cycle" (fun () ->
      Hashmap.size_plain heap ~root);
  check_raises_corrupt "wide fold over the cycle" (fun () ->
      Hashmap.fold_wide_plain heap ~root (fun _ _ n -> n + 1) 0)

let test_skip_fold_cycle () =
  let _, heap, sl = skip_env () in
  List.iter (fun k -> Skiplist.set_plain sl ~key:k ~value:1L) [ 1; 2; 3 ];
  let root = Skiplist.root sl in
  let level0 = 3 (* word index of a skip node's level-0 next link *) in
  let first = Heap.load_field_int heap root level0 in
  Heap.store_field_int heap first level0 first;
  check_raises_corrupt "skip list level-0 cycle" (fun () ->
      Skiplist.size_plain heap ~root)

let suite =
  ( "maps",
    [
      case "hashmap: set/get/overwrite" test_hash_set_get;
      case "hashmap: incr inserts and accumulates" test_hash_incr;
      case "hashmap: remove from chains" test_hash_remove;
      case "hashmap: fold and size" test_hash_fold_and_size;
      case "hashmap: attach to existing structure" test_hash_attach;
      case "hashmap: plain setup visible to ops" test_hash_set_plain_matches_ops;
      case "hashmap: transfer semantics" test_hash_transfer;
      case "hashmap: concurrent increments are atomic"
        test_hash_concurrent_counters;
      case "hashmap: wide multi-word values" test_hash_wide_values;
      prop_hash_vs_model;
      case "skiplist: set/get/overwrite" test_skip_set_get;
      case "skiplist: sorted traversal" test_skip_sorted_fold;
      case "skiplist: remove" test_skip_remove;
      case "skiplist: incr" test_skip_incr;
      case "skiplist: attach" test_skip_attach;
      case "skiplist: concurrent distinct inserts" test_skip_concurrent_inserts;
      case "skiplist: concurrent same-key race" test_skip_concurrent_same_key;
      case "skiplist: level distribution" test_skip_level_distribution;
      case "skiplist: create and attach need a thread" test_skip_needs_a_thread;
      case "hashmap: a cyclic chain makes the plain folds raise"
        test_hash_fold_cycle;
      case "skiplist: a level-0 cycle makes the plain fold raise"
        test_skip_fold_cycle;
      prop_skip_vs_model;
      prop_nvt_vs_model;
      prop_skip_disciplines;
      prop_delayfree_vs_model;
      slow_case "hashmap: crash + rollback + GC recovery"
        test_hash_crash_recovery;
      slow_case "skiplist: crash recovery with zero mechanism"
        test_skip_crash_recovery_and_gc;
      slow_case "nvtraverse: crash recovery with zero mechanism"
        test_nvt_crash_recovery;
      slow_case "delay-free: crash + recoverable-CAS repair"
        test_delayfree_crash_repair;
    ] )
