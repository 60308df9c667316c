(* Recovery at scale (E22): determinism of the parallel mark across job
   counts, crash-idempotence of incremental recovery (no stores before
   [Incremental.finish]), equivalence of on-demand and eager recovery,
   allocation-rate guards on the recovery scans, and the image digest:
   its page-skipping fold against the plain one, and the smoke's
   recovered images pinned. *)

module RS = Workload.Recovery_scaling
module Machine = Workload.Machine
module Populate = Workload.Populate
module Heap = Pheap.Heap
module Heap_gc = Pheap.Heap_gc

let variant = Machine.Mutex_map Atlas.Mode.Log_only

let image m =
  RS.image_hash m.Machine.pmem ~lo:0 ~hi:(Machine.log_base m.Machine.spec)

(* A populated machine, crashed mid-workload — the state every recovery
   mode starts from.  Pure function of (objects, seed): twins built with
   the same arguments carry byte-identical images. *)
let crashed ~objects ~seed =
  let spec = RS.default_spec ~variant ~seed in
  let m = Populate.build spec ~objects ~seed in
  ignore (Machine.crash_execute m : Tsp_core.Crash_executor.execution);
  m

(* The parallel scan must be a pure refactoring of the sequential one:
   same outage bill, same stats, same phase split, same heap image for
   any job count (the merge is in chunk order, not completion order). *)
let test_jobs_identity () =
  let cell jobs =
    RS.run_cell ~variant ~objects:3_000 ~mode:(Machine.Parallel_gc jobs)
      ~seed:7 ()
  in
  let c1 = cell 1 and c2 = cell 2 and c4 = cell 4 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (RS.cells_match c1 c2);
  Alcotest.(check bool) "jobs 1 = jobs 4" true (RS.cells_match c1 c4);
  let eager = RS.run_cell ~variant ~objects:3_000 ~mode:Machine.Eager ~seed:7 () in
  Alcotest.(check bool)
    "parallel heap image = eager heap image" true
    (eager.RS.image_hash = c2.RS.image_hash);
  Alcotest.(check bool)
    "audits pass" true
    (eager.RS.heap_audit_ok && c1.RS.heap_audit_ok && c2.RS.heap_audit_ok)

(* Crash during incremental recovery: planning, [advance], [on_demand]
   and [touch] issue no stores, so a collector that dies before [finish]
   leaves the image exactly as recovery left it — and a restarted
   collection lands on the same final image and stats as one that was
   never interrupted. *)
let test_incremental_crash_idempotent () =
  let a = crashed ~objects:2_500 ~seed:13 in
  let b = crashed ~objects:2_500 ~seed:13 in
  let ra = Machine.recover ~mode:Machine.Incremental_gc a in
  ignore (Machine.recover ~mode:Machine.Incremental_gc b : Machine.recovery);
  let inc_a = Option.get ra.Machine.gc_pending in
  let heap_a = Option.get ra.Machine.heap in
  ignore (Heap_gc.Incremental.advance inc_a ~budget:2_000 : int);
  ignore (Heap_gc.Incremental.on_demand inc_a : int);
  let n = ref 0 in
  Heap.iter_blocks heap_a (fun ~addr ~kind:_ ~words:_ ->
      if !n < 16 then (
        incr n;
        ignore (Heap_gc.Incremental.touch inc_a ~addr : int)));
  Alcotest.(check bool)
    "partial collection issued no stores" true
    (image a = image b);
  (* The collector dies here (inc_a is abandoned, finish never runs); a
     restarted recovery plans the collection afresh on the same image. *)
  let inc_a' = Heap_gc.Incremental.start heap_a in
  let stats_a, quar_a = Heap_gc.Incremental.finish inc_a' in
  let stats_b, quar_b =
    match Machine.finish_background_gc b with
    | Some r -> r
    | None -> Alcotest.fail "machine b lost its pending collection"
  in
  Alcotest.(check bool) "same final image" true (image a = image b);
  Alcotest.(check bool) "same gc stats" true (stats_a = stats_b);
  Alcotest.(check bool) "same quarantine" true (quar_a = quar_b)

(* Touching every object on demand before the background collector gets
   to it must recover exactly what eager recovery recovers: same map
   contents, same heap image. *)
let test_on_demand_full_touch () =
  let a = crashed ~objects:2_000 ~seed:23 in
  let b = crashed ~objects:2_000 ~seed:23 in
  ignore (Machine.recover ~mode:Machine.Eager a : Machine.recovery);
  let rb = Machine.recover ~mode:Machine.Incremental_gc b in
  let inc = Option.get rb.Machine.gc_pending in
  let heap_b = Option.get rb.Machine.heap in
  let touched = ref 0 in
  Heap.iter_blocks heap_b (fun ~addr ~kind:_ ~words:_ ->
      if Heap_gc.Incremental.touch inc ~addr > 0 then incr touched);
  Alcotest.(check bool) "some objects recovered on demand" true (!touched > 0);
  ignore
    (Machine.finish_background_gc b
      : (Heap_gc.stats * Heap_gc.quarantine) option);
  Alcotest.(check bool) "same heap image" true (image a = image b);
  let dump m =
    List.sort compare (Machine.dump m ~root:(Heap.get_root m.Machine.heap))
  in
  Alcotest.(check (list (pair int int64)))
    "same map contents" (dump a) (dump b)

(* qcheck: for any (seed, size, on-demand sample), incremental recovery
   finishes on the eager image with a clean audit and the same verdict. *)
let prop_on_demand_equals_eager =
  QCheck2.Test.make ~count:8 ~name:"incremental recovery = eager recovery"
    QCheck2.Gen.(
      triple (int_range 1 500) (int_range 200 1_500) (int_range 0 40))
    (fun (seed, objects, touches) ->
      let eager = RS.run_cell ~variant ~objects ~mode:Machine.Eager ~seed () in
      let inc =
        RS.run_cell ~variant ~objects ~mode:Machine.Incremental_gc ~seed
          ~touches ()
      in
      eager.RS.image_hash = inc.RS.image_hash
      && eager.RS.verdict = inc.RS.verdict
      && eager.RS.heap_audit_ok && inc.RS.heap_audit_ok
      && inc.RS.outage_cycles < eager.RS.outage_cycles)

(* Allocation guards for the recovery scans: flat mark sets, int stacks
   and frontier chunks, full-arity scanner calls and header words
   decoded where they are read keep the per-object minor-heap traffic
   below one word — a regression to boxed headers (3 words each),
   boxed visited-sets, per-object closures or over-applied scanners
   shows up as words per live object here long before it shows up in
   wall clock.  All three measure the same recovered 20k-object heap,
   once warm (everything the scan needs is already faulted in): 0.2,
   0.0 and 0.0 words per live object, the remainder per frontier chunk
   and per scan, not per object. *)
let guard_heap =
  lazy
    (let m = crashed ~objects:20_000 ~seed:31 in
     let r = Machine.recover ~mode:Machine.Incremental_gc m in
     ignore
       (Machine.finish_background_gc m
         : (Heap_gc.stats * Heap_gc.quarantine) option);
     let heap = Option.get r.Machine.heap in
     let stats, _ = Heap_gc.collect_streamed heap in
     (heap, stats.Heap_gc.live_objects))

let allocation_guard ~what ~bound scan =
  let heap, live = Lazy.force guard_heap in
  scan heap;
  let w0 = Gc.minor_words () in
  scan heap;
  let dw = Gc.minor_words () -. w0 in
  let per_object = dw /. float_of_int (max 1 live) in
  if per_object > bound then
    Alcotest.failf
      "%s allocates %.1f minor words per live object (bound %.0f; %d live, \
       %.0f words total)"
      what per_object bound live dw

let test_mark_allocation_guard () =
  allocation_guard ~what:"streamed collection" ~bound:1. (fun heap ->
      ignore
        (Heap_gc.collect_streamed heap : Heap_gc.stats * Heap_gc.quarantine))

let test_eager_allocation_guard () =
  allocation_guard ~what:"eager collection" ~bound:1. (fun heap ->
      ignore (Heap_gc.collect heap : Heap_gc.stats * Heap_gc.quarantine))

(* The audit keeps one tag byte per heap word and decodes each header
   in a register, so it allocates nothing per object. *)
let test_verify_allocation_guard () =
  allocation_guard ~what:"heap audit" ~bound:1. (fun heap ->
      match Heap_gc.verify heap with
      | Ok () -> ()
      | Error es -> Alcotest.failf "audit failed: %s" (String.concat "; " es))

(* [image_hash] folds an untouched page in one multiply; its value must
   still be the word-by-word FNV-1a fold below, on devices with written
   pages, pages written back to all zeros (private, yet reading zero),
   ranges that start or end mid-page, and empty ranges. *)
let fold_hash pmem ~lo ~hi =
  let h = ref 0x3bf29ce484222325 in
  let a = ref lo in
  while !a < hi do
    h := (!h lxor Nvm.Pmem.peek_int pmem !a) * 0x100000001b3 land max_int;
    a := !a + 8
  done;
  !h

let prop_image_hash_matches_fold =
  let page_words = Nvm.Memory.page_size / 8 in
  let pages =
    Nvm.Config.test_small.Nvm.Config.region_size / Nvm.Memory.page_size
  in
  let words = pages * page_words in
  QCheck2.Test.make ~count:200 ~name:"image_hash == word-by-word FNV-1a fold"
    QCheck2.Gen.(
      let write =
        triple (int_range 0 (pages - 1)) (int_range 0 (page_words - 1))
          (frequency [ (1, return 0); (3, int) ])
      in
      let range =
        let* lo = int_range 0 words in
        let+ hi = frequency [ (1, return lo); (6, int_range lo words) ] in
        (lo, hi)
      in
      pair (list_size (int_range 0 40) write) range)
    (fun (writes, (lo, hi)) ->
      let pmem = Nvm.Pmem.create Nvm.Config.test_small in
      List.iter
        (fun (page, word, v) ->
          let addr = 8 * ((page * page_words) + word) in
          (* A zero written over a nonzero leaves a private page that
             reads zero. *)
          if v = 0 then Nvm.Pmem.store_int pmem addr 1;
          Nvm.Pmem.store_int pmem addr v)
        writes;
      let lo = 8 * lo and hi = 8 * hi in
      RS.image_hash pmem ~lo ~hi = fold_hash pmem ~lo ~hi)

(* The recovered images of [tsp recovery --smoke] (seed 11), pinned: the
   smoke itself only compares a replay with its own run, so a drift in
   [image_hash]'s value would pass it. *)
let test_smoke_image_hashes () =
  List.iter
    (fun (variant, objects, want) ->
      let c = RS.run_cell ~variant ~objects ~mode:Machine.Eager ~seed:11 () in
      Alcotest.(check string)
        (Printf.sprintf "%s/%d" (Machine.variant_to_string variant) objects)
        want
        (Printf.sprintf "%016x" c.RS.image_hash))
    [
      (variant, 1_000, "1d868481ca8dc52c");
      (variant, 4_000, "35d111540186615c");
      (Machine.Nonblocking_map, 1_000, "34d661413b47fd77");
      (Machine.Nonblocking_map, 4_000, "04dd27e38d67a9f5");
    ]

(* The recovery-mode rules on hand-built cells, one broken rule at a
   time.  The first cell's own audit counts too. *)
let test_mode_rules () =
  let cell mode =
    {
      RS.variant;
      objects = 100;
      mode;
      outage_cycles = 50;
      background_cycles = 0;
      on_demand_touches = 0;
      phases = [];
      gc = None;
      verdict = "clean";
      heap_audit_ok = true;
      image_hash = 1;
    }
  in
  let eager = cell Machine.Eager
  and par1 = cell (Machine.Parallel_gc 1)
  and par2 = cell (Machine.Parallel_gc 2)
  and inc = { (cell Machine.Incremental_gc) with RS.outage_cycles = 20 } in
  let where = Machine.variant_to_string variant ^ "/100: " in
  let check name expected cells =
    Alcotest.(check (list string)) name
      (List.map (fun m -> where ^ m) expected)
      (RS.violations cells)
  in
  check "every rule holds" [] [ eager; par1; par2; inc ];
  check "a first cell failing its audit is reported"
    [ "eager failed the heap audit" ]
    [ { eager with RS.heap_audit_ok = false }; par1; par2; inc ];
  check "an image mismatch is reported"
    [ "incremental image 2 differs from eager image 1" ]
    [ eager; par1; par2; { inc with RS.image_hash = 2 } ];
  check "parallel cells must match across job counts"
    [ "parallel cells diverge across job counts (determinism violation)" ]
    [ eager; par1; { par2 with RS.outage_cycles = 51 }; inc ];
  check "the incremental outage must be shorter"
    [ "incremental outage (50 cycles) is not shorter than eager (50 cycles)" ]
    [ eager; par1; par2; cell Machine.Incremental_gc ]

let suite =
  ( "recovery_scaling",
    [
      Alcotest.test_case "parallel scan identical across job counts" `Quick
        test_jobs_identity;
      Alcotest.test_case "crash during incremental recovery is idempotent"
        `Quick test_incremental_crash_idempotent;
      Alcotest.test_case "on-demand touches recover the eager image" `Quick
        test_on_demand_full_touch;
      QCheck_alcotest.to_alcotest prop_on_demand_equals_eager;
      Alcotest.test_case "mode rules report every broken rule" `Quick
        test_mode_rules;
      Alcotest.test_case "streamed mark minor-allocation guard" `Slow
        test_mark_allocation_guard;
      Alcotest.test_case "eager collection minor-allocation guard" `Slow
        test_eager_allocation_guard;
      Alcotest.test_case "heap audit minor-allocation guard" `Slow
        test_verify_allocation_guard;
      QCheck_alcotest.to_alcotest prop_image_hash_matches_fold;
      Alcotest.test_case "smoke image hashes are pinned" `Quick
        test_smoke_image_hashes;
    ] )
