(* Tests for the NVM device model: configuration, the two memory images,
   the cache model, the device itself, and the crash semantics that the
   whole reproduction rests on. *)

open Helpers
module Cache = Nvm.Cache
module Memory = Nvm.Memory
module Stats = Nvm.Stats
module Cost_model = Nvm.Cost_model

(* --- Config --- *)

let test_presets_valid () =
  List.iter
    (fun cfg ->
      match Config.validate cfg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" cfg.Config.name e)
    [ Config.desktop; Config.server; Config.test_small ]

let test_validate_rejects () =
  let bad f = { Config.test_small with Config.name = "bad" } |> f in
  let expect_error cfg =
    match Config.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "expected validation error"
  in
  expect_error (bad (fun c -> { c with Config.line_size = 48 }));
  expect_error (bad (fun c -> { c with Config.region_size = 100 }));
  expect_error (bad (fun c -> { c with Config.cache_ways = 0 }));
  expect_error (bad (fun c -> { c with Config.cache_lines = 17 }));
  expect_error (bad (fun c -> { c with Config.ghz = 0. }));
  expect_error (bad (fun c -> { c with Config.flush_cost = -1 }))

let test_with_region_size () =
  let c = Config.with_region_size Config.test_small 100 in
  Alcotest.(check int) "rounded to line" 128 c.Config.region_size;
  let c = Config.with_region_size Config.test_small 4096 in
  Alcotest.(check int) "exact multiple kept" 4096 c.Config.region_size

let test_validate_line_size_page () =
  (* A line wider than a memory page would straddle two pages. *)
  let wide = { Config.test_small with Config.line_size = 2 * Memory.page_size } in
  (match Config.validate wide with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "line_size above the page size accepted");
  check_raises_invalid "Pmem.create" (fun () -> ignore (Pmem.create wide));
  let page = { Config.test_small with Config.line_size = Memory.page_size } in
  Alcotest.(check bool) "one-page line accepted" true
    (Result.is_ok (Config.validate page))

let test_n_sets () =
  Alcotest.(check int) "test_small sets" 8 (Config.n_sets Config.test_small);
  Alcotest.(check int) "desktop sets" 1024 (Config.n_sets Config.desktop)

(* --- Memory --- *)

let test_memory_roundtrip () =
  let m = Memory.create ~size:1024 in
  Memory.store m 64 0x1122334455667788L;
  Alcotest.check int64 "load back" 0x1122334455667788L (Memory.load m 64);
  Alcotest.check int64 "durable still zero" 0L (Memory.load_durable m 64)

let test_memory_alignment () =
  let m = Memory.create ~size:1024 in
  check_raises_invalid "misaligned" (fun () -> ignore (Memory.load m 12));
  check_raises_invalid "negative" (fun () -> ignore (Memory.load m (-8)));
  check_raises_invalid "past end" (fun () -> ignore (Memory.load m 1020))

let test_memory_write_back () =
  let m = Memory.create ~size:1024 in
  Memory.store m 64 7L;
  Memory.store m 72 8L;
  Memory.write_back m ~line_addr:64 ~len:64;
  Alcotest.check int64 "durable after wb" 7L (Memory.load_durable m 64);
  Alcotest.check int64 "same line too" 8L (Memory.load_durable m 72);
  check_raises_invalid "line past the end" (fun () ->
      Memory.write_back m ~line_addr:1000 ~len:64);
  let m = Memory.create ~size:(2 * Memory.page_size) in
  check_raises_invalid "line across a page boundary" (fun () ->
      Memory.write_back m ~line_addr:(Memory.page_size - 32) ~len:64)

let test_memory_discard () =
  let m = Memory.create ~size:1024 in
  Memory.store m 0 1L;
  Memory.store m 64 2L;
  Memory.write_back m ~line_addr:0 ~len:64;
  Memory.discard_current m;
  Alcotest.check int64 "written-back survives" 1L (Memory.load m 0);
  Alcotest.check int64 "unwritten lost" 0L (Memory.load m 64)

(* Bytes allocated by [f ()] on this domain, minor and major heap alike. *)
let allocated_during f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (Gc.allocated_bytes () -. before, r)

let test_memory_create_footprint () =
  let bytes, _ = allocated_during (fun () -> Pmem.create Config.desktop) in
  Alcotest.(check bool)
    (Printf.sprintf "64 MiB desktop device allocates %.0f bytes < 1 MiB" bytes)
    true (bytes < 1048576.)

let test_memory_recover_footprint () =
  (* k pages written and persisted, then a crash and a recovery: the
     whole life allocates O(k) pages — one current and one durable copy
     each — whatever the region size. *)
  let k = 8 in
  let addr i = i * 37 * Memory.page_size in
  let life p =
    for i = 0 to k - 1 do
      Pmem.store_int p (addr i) (i + 1)
    done;
    Pmem.persist_all p;
    Pmem.store_int p (addr 0) 99 (* dirty again, dropped below *);
    crash p FM.Full_discard;
    Pmem.recover p
  in
  (* The first run in a process also pays one-off lazy set-up. *)
  life (Pmem.create Config.desktop);
  let p = Pmem.create Config.desktop in
  let bytes, () = allocated_during (fun () -> life p) in
  let bound = float ((2 * k) + 2) *. float Memory.page_size in
  Alcotest.(check bool)
    (Printf.sprintf "%d written pages: %.0f bytes < %.0f" k bytes bound)
    true (bytes < bound);
  for i = 0 to k - 1 do
    Alcotest.(check int) "persisted word recovered" (i + 1) (Pmem.load_int p (addr i))
  done

(* --- Cache --- *)

let make_cache ?(sets = 2) ?(ways = 2) () =
  let wb = ref [] in
  let c =
    Cache.create ~sets ~ways ~line_size:64 ~write_back:(fun a -> wb := a :: !wb)
  in
  (c, wb)

let test_cache_hit_miss () =
  let c, _ = make_cache () in
  Alcotest.(check int)
    "cold access misses clean" Cache.miss_clean
    (Cache.touch c ~addr:0 ~dirty:false);
  Alcotest.(check int)
    "same line hits" Cache.hit
    (Cache.touch c ~addr:8 ~dirty:false)

let test_cache_dirty_tracking () =
  let c, _ = make_cache () in
  ignore (Cache.touch c ~addr:0 ~dirty:false);
  Alcotest.(check bool) "clean after load" false (Cache.is_dirty c ~addr:0);
  ignore (Cache.touch c ~addr:0 ~dirty:true);
  Alcotest.(check bool) "dirty after store" true (Cache.is_dirty c ~addr:0);
  Alcotest.(check (list int)) "dirty list" [ 0 ] (Cache.dirty_lines c)

let test_cache_eviction_writes_back () =
  let c, wb = make_cache ~sets:1 ~ways:2 () in
  ignore (Cache.touch c ~addr:0 ~dirty:true);
  ignore (Cache.touch c ~addr:64 ~dirty:true);
  Alcotest.(check (list int)) "no wb yet" [] !wb;
  (* Third distinct line in a 2-way set evicts the LRU (line 0). *)
  Alcotest.(check int)
    "expected dirty eviction" Cache.miss_dirty
    (Cache.touch c ~addr:128 ~dirty:false);
  Alcotest.(check (list int)) "line 0 written back" [ 0 ] !wb;
  Alcotest.(check bool) "line 0 gone" false (Cache.cached c ~addr:0);
  Alcotest.(check int)
    "next eviction is dirty line 64" Cache.miss_dirty
    (Cache.touch c ~addr:192 ~dirty:false);
  Alcotest.(check (list int)) "line 64 written back next" [ 64; 0 ] !wb

let test_cache_lru_order () =
  let c, wb = make_cache ~sets:1 ~ways:2 () in
  ignore (Cache.touch c ~addr:0 ~dirty:true);
  ignore (Cache.touch c ~addr:64 ~dirty:true);
  (* Touch line 0 again: line 64 becomes LRU. *)
  ignore (Cache.touch c ~addr:0 ~dirty:false);
  ignore (Cache.touch c ~addr:128 ~dirty:false);
  Alcotest.(check (list int)) "LRU line 64 evicted" [ 64 ] !wb

let test_cache_flush_line () =
  let c, wb = make_cache () in
  ignore (Cache.touch c ~addr:0 ~dirty:true);
  Alcotest.(check bool) "flush writes back" true (Cache.flush_line c ~addr:0);
  Alcotest.(check (list int)) "callback fired" [ 0 ] !wb;
  Alcotest.(check bool) "now clean" false (Cache.is_dirty c ~addr:0);
  Alcotest.(check bool) "still cached (clwb)" true (Cache.cached c ~addr:0);
  Alcotest.(check bool) "second flush no-op" false (Cache.flush_line c ~addr:0);
  Alcotest.(check bool) "uncached flush no-op" false
    (Cache.flush_line c ~addr:4096)

let test_cache_write_back_all () =
  let c, wb = make_cache ~sets:4 ~ways:2 () in
  ignore (Cache.touch c ~addr:0 ~dirty:true);
  ignore (Cache.touch c ~addr:64 ~dirty:true);
  ignore (Cache.touch c ~addr:128 ~dirty:false);
  Alcotest.(check int) "two dirty rescued" 2 (Cache.write_back_all c);
  Alcotest.(check int) "both written" 2 (List.length !wb);
  Alcotest.(check (list int)) "nothing dirty" [] (Cache.dirty_lines c)

let test_cache_drop_all () =
  let c, wb = make_cache ~sets:4 ~ways:2 () in
  ignore (Cache.touch c ~addr:0 ~dirty:true);
  ignore (Cache.touch c ~addr:64 ~dirty:false);
  Alcotest.(check int) "one dirty lost" 1 (Cache.drop_all c);
  Alcotest.(check (list int)) "no write-back on drop" [] !wb;
  Alcotest.(check bool) "cache empty" false (Cache.cached c ~addr:64)

let test_cache_set_isolation () =
  (* Lines in different sets never evict each other. *)
  let c, wb = make_cache ~sets:2 ~ways:1 () in
  ignore (Cache.touch c ~addr:0 ~dirty:true) (* set 0 *);
  ignore (Cache.touch c ~addr:64 ~dirty:true) (* set 1 *);
  Alcotest.(check (list int)) "both resident" [] !wb;
  ignore (Cache.touch c ~addr:128 ~dirty:false) (* set 0 again *);
  Alcotest.(check (list int)) "only set-0 line evicted" [ 0 ] !wb;
  Alcotest.(check bool) "set-1 line untouched" true (Cache.cached c ~addr:64)

(* --- Pmem --- *)

let test_pmem_store_load () =
  let p = small_pmem () in
  Pmem.store p 128 42L;
  Alcotest.check int64 "load" 42L (Pmem.load p 128);
  Pmem.store_int p 136 7;
  Alcotest.(check int) "int helpers" 7 (Pmem.load_int p 136)

let test_pmem_cas () =
  let p = small_pmem ~journal:true () in
  Pmem.store p 0 5L;
  Alcotest.(check bool) "cas ok" true
    (Pmem.cas p 0 ~expected:5L ~desired:6L);
  Alcotest.check int64 "updated" 6L (Pmem.load p 0);
  Alcotest.(check bool) "cas fail" false
    (Pmem.cas p 0 ~expected:5L ~desired:9L);
  Alcotest.check int64 "unchanged" 6L (Pmem.load p 0);
  let st = Pmem.stats p in
  Alcotest.(check int) "cas count" 2 st.Stats.cas_ops;
  Alcotest.(check int) "cas failures" 1 st.Stats.cas_failures;
  Alcotest.(check bool) "cas_int" true
    (Pmem.cas_int p 0 ~expected:6 ~desired:7)

let test_pmem_flush_durability () =
  let p = small_pmem () in
  Pmem.store p 64 9L;
  Alcotest.check int64 "not durable yet" 0L (Pmem.load_durable p 64);
  Pmem.flush p 64;
  Pmem.fence p;
  Alcotest.check int64 "durable after flush" 9L (Pmem.load_durable p 64)

let test_pmem_crash_rescue () =
  let p = small_pmem ~journal:true () in
  for i = 0 to 63 do
    Pmem.store p (i * 8) (Int64.of_int i)
  done;
  crash p FM.Full_rescue;
  Alcotest.(check bool) "all stores durable" true
    (Pmem.durable_reflects_all_stores p);
  Alcotest.(check int) "no losses" 0 (Pmem.lost_store_count p)

let test_pmem_crash_discard () =
  let p = small_pmem ~journal:true () in
  (* One store, never evicted (nothing else touches its set): must die. *)
  Pmem.store p 0 123L;
  crash p FM.Full_discard;
  Alcotest.(check bool) "store lost" false (Pmem.durable_reflects_all_stores p);
  Alcotest.check int64 "durable stale" 0L (Pmem.load_durable p 0)

let test_pmem_crash_then_ops_fail () =
  let p = small_pmem () in
  Pmem.store p 0 1L;
  crash p FM.Full_rescue;
  Alcotest.check_raises "store after crash" Pmem.Crashed_device (fun () ->
      Pmem.store p 0 2L);
  Alcotest.check_raises "load after crash" Pmem.Crashed_device (fun () ->
      ignore (Pmem.load p 0));
  Alcotest.(check bool) "is_crashed" true (Pmem.is_crashed p)

let test_pmem_recover () =
  let p = small_pmem ~journal:true () in
  Pmem.store p 0 11L;
  crash p FM.Full_rescue;
  Pmem.recover p;
  Alcotest.(check bool) "usable again" false (Pmem.is_crashed p);
  Alcotest.check int64 "rescued value visible" 11L (Pmem.load p 0);
  Alcotest.(check (list (pair int int64))) "journal cleared" []
    (Pmem.store_history p)

let test_pmem_recover_discard_installs_durable () =
  let p = small_pmem () in
  Pmem.store p 0 5L;
  Pmem.flush p 0;
  Pmem.store p 0 6L (* dirty again, will be dropped *);
  crash p FM.Full_discard;
  Pmem.recover p;
  Alcotest.check int64 "current = durable after recover" 5L (Pmem.load p 0)

let test_pmem_recover_requires_crash () =
  let p = small_pmem () in
  check_raises_invalid "recover uncrashed" (fun () -> Pmem.recover p)

(* crash_with: the adversarial fault-model spectrum.  test-small has
   64-byte lines (8 words), 16 cache lines in 8 sets. *)

let no_rng : int -> int =
 fun _ -> Alcotest.fail "this fault model must not consult the RNG"

let test_crash_with_full_rescue () =
  let p = small_pmem () in
  for i = 0 to 3 do
    Pmem.store p (i * 64) (Int64.of_int (i + 1))
  done;
  let d = Pmem.crash p ~fault:Nvm.Fault_model.Full_rescue ~rng:no_rng () in
  Alcotest.(check int) "rescued" 4 d.Pmem.rescued;
  Alcotest.(check int) "no drops" 0 d.Pmem.dropped;
  for i = 0 to 3 do
    Alcotest.check int64 "line durable"
      (Int64.of_int (i + 1))
      (Pmem.load_durable p (i * 64))
  done;
  Alcotest.(check bool) "device crashed" true (Pmem.is_crashed p)

let test_crash_with_full_discard () =
  let p = small_pmem () in
  Pmem.store p 0 123L;
  let d = Pmem.crash p ~fault:Nvm.Fault_model.Full_discard ~rng:no_rng () in
  Alcotest.(check int) "dropped" 1 d.Pmem.dropped;
  Alcotest.check int64 "durable stale" 0L (Pmem.load_durable p 0)

let test_crash_with_partial_rescue () =
  let p = small_pmem () in
  (* Four dirty lines; a budget of two rescues the two lowest-addressed
     ones, deterministically. *)
  for i = 0 to 3 do
    Pmem.store p (i * 64) (Int64.of_int (i + 1))
  done;
  let d =
    Pmem.crash p
      ~fault:(Nvm.Fault_model.Partial_rescue { energy_budget_j = 1e-3 })
      ~rescue_limit:2 ~rng:no_rng ()
  in
  Alcotest.(check int) "rescued" 2 d.Pmem.rescued;
  Alcotest.(check int) "dropped" 2 d.Pmem.dropped;
  Alcotest.check int64 "line 0 rescued" 1L (Pmem.load_durable p 0);
  Alcotest.check int64 "line 1 rescued" 2L (Pmem.load_durable p 64);
  Alcotest.check int64 "line 2 lost" 0L (Pmem.load_durable p 128);
  Alcotest.check int64 "line 3 lost" 0L (Pmem.load_durable p 192);
  let st = Pmem.stats p in
  Alcotest.(check int) "stats.rescued_lines" 2 st.Stats.rescued_lines;
  Alcotest.(check int) "stats.dropped_lines" 2 st.Stats.dropped_lines

let test_crash_with_partial_rescue_unbounded () =
  let p = small_pmem () in
  for i = 0 to 3 do
    Pmem.store p (i * 64) 7L
  done;
  let d =
    Pmem.crash p
      ~fault:(Nvm.Fault_model.Partial_rescue { energy_budget_j = 1.0 })
      ~rng:no_rng ()
  in
  Alcotest.(check int) "all rescued without a limit" 4 d.Pmem.rescued;
  Alcotest.(check int) "nothing dropped" 0 d.Pmem.dropped

let test_crash_with_torn_lines () =
  let p = small_pmem () in
  (* One dirty line holding words 10..17. *)
  for w = 0 to 7 do
    Pmem.store p (w * 8) (Int64.of_int (10 + w))
  done;
  (* prob 1.0 always tears; the word draw says 3 leading words land. *)
  let rng bound = if bound = 1_000_000 then 0 else 3 in
  let d =
    Pmem.crash p
      ~fault:(Nvm.Fault_model.Torn_lines { prob = 1.0 })
      ~rng ()
  in
  Alcotest.(check int) "torn" 1 d.Pmem.torn;
  Alcotest.(check int) "rescued" 0 d.Pmem.rescued;
  for w = 0 to 2 do
    Alcotest.check int64 "leading words durable"
      (Int64.of_int (10 + w))
      (Pmem.load_durable p (w * 8))
  done;
  for w = 3 to 7 do
    Alcotest.check int64 "trailing words stale" 0L (Pmem.load_durable p (w * 8))
  done

let test_crash_with_torn_zero_words_no_writeback () =
  (* A tear of zero words moves no bytes: it must count as torn damage
     but NOT as a write-back in the statistics ledger (a historical bug
     inflated [writebacks] here). *)
  let p = small_pmem () in
  Pmem.store p 0 7L;
  let wb_before = (Pmem.stats p).Stats.writebacks in
  let rng bound = if bound = 1_000_000 then 0 else 0 in
  let d =
    Pmem.crash p ~fault:(Nvm.Fault_model.Torn_lines { prob = 1.0 }) ~rng ()
  in
  Alcotest.(check int) "torn" 1 d.Pmem.torn;
  Alcotest.(check int) "no words landed" 0
    (Int64.to_int (Pmem.load_durable p 0));
  Alcotest.(check int)
    "zero-word tear is not a write-back" wb_before
    (Pmem.stats p).Stats.writebacks

let test_crash_with_torn_prob_zero_is_rescue () =
  let p = small_pmem () in
  Pmem.store p 0 9L;
  let rng bound = if bound = 1_000_000 then 0 else 0 in
  let d =
    Pmem.crash p ~fault:(Nvm.Fault_model.Torn_lines { prob = 0. }) ~rng ()
  in
  Alcotest.(check int) "nothing torn" 0 d.Pmem.torn;
  Alcotest.(check int) "rescued instead" 1 d.Pmem.rescued;
  Alcotest.check int64 "value durable" 9L (Pmem.load_durable p 0)

let test_crash_with_bit_rot () =
  let p = small_pmem () in
  Pmem.store p 0 1L;
  (* Scripted draws: flip bit 5 of word 1 and bit 9 of word 2. *)
  let k = ref 0 in
  let rng _bound =
    incr k;
    match !k with 1 -> 1 | 2 -> 5 | 3 -> 2 | _ -> 9
  in
  let d =
    Pmem.crash p ~fault:(Nvm.Fault_model.Bit_rot { flips = 2 }) ~rng ()
  in
  Alcotest.(check int) "flips recorded" 2 d.Pmem.bit_flips;
  Alcotest.(check int) "dirty line still rescued" 1 d.Pmem.rescued;
  Alcotest.check int64 "store survived the rescue" 1L (Pmem.load_durable p 0);
  Alcotest.check int64 "bit 5 of word 1 flipped" 32L (Pmem.load_durable p 8);
  Alcotest.check int64 "bit 9 of word 2 flipped" 512L (Pmem.load_durable p 16);
  Alcotest.(check int) "stats.flipped_bits" 2 (Pmem.stats p).Stats.flipped_bits

let test_crash_with_deterministic_rng () =
  (* The same seed-derived stream produces a bit-identical durable image,
     whichever model consumes it. *)
  let image fault =
    let p = small_pmem () in
    for i = 0 to 15 do
      Pmem.store p (i * 8 * 13 mod (64 * 1024 / 8 * 8)) (Int64.of_int i)
    done;
    let r = Rng.create ~seed:5 in
    let rng bound = Rng.int r bound in
    let d = Pmem.crash p ~fault ~rng () in
    (d, Pmem.durable_snapshot p)
  in
  List.iter
    (fun fault ->
      let d1, s1 = image fault in
      let d2, s2 = image fault in
      Alcotest.(check bool) "same damage" true (d1 = d2);
      Alcotest.(check bool) "same durable image" true (String.equal s1 s2))
    Nvm.Fault_model.reference

let test_crash_with_then_recover () =
  let p = small_pmem () in
  Pmem.store p 0 3L;
  ignore
    (Pmem.crash p ~fault:(Nvm.Fault_model.Torn_lines { prob = 0.5 })
       ~rng:(fun b -> b / 2) ()
      : Pmem.crash_damage);
  Alcotest.check_raises "ops fail while crashed" Pmem.Crashed_device (fun () ->
      Pmem.store p 0 4L);
  Pmem.recover p;
  Alcotest.(check bool) "usable again" false (Pmem.is_crashed p);
  Alcotest.check int64 "current = durable" (Pmem.load_durable p 0)
    (Pmem.load p 0)

let test_pmem_persist_all () =
  let p = small_pmem () in
  for i = 0 to 9 do
    Pmem.store p (i * 8) 1L
  done;
  Pmem.persist_all p;
  Alcotest.(check int) "nothing dirty" 0 (Pmem.dirty_line_count p);
  crash p FM.Full_discard;
  Alcotest.check int64 "persisted survives discard" 1L (Pmem.load_durable p 0)

let test_pmem_step_hook () =
  let p = small_pmem () in
  let costs = ref [] in
  Pmem.set_step_hook p (fun ~cost -> costs := cost :: !costs);
  Pmem.store p 0 1L (* miss: store_cost + store_miss_extra = 6 *);
  Pmem.store p 0 2L (* hit: 1 *);
  ignore (Pmem.load p 0) (* hit: 1 *);
  Pmem.flush p 0 (* 20 *);
  Pmem.fence p (* 5 *);
  Pmem.charge p 100;
  Pmem.clear_step_hook p;
  Pmem.charge p 50 (* goes to the stats clock instead *);
  Alcotest.(check (list int)) "costs seen by hook" [ 100; 5; 20; 1; 1; 6 ]
    !costs;
  Alcotest.(check int) "clock without hook" 50 (Pmem.stats p).Stats.clock

(* A writer's charge may switch threads, and the thread that runs may
   clean the writer's line (flush it, or evict it by touching the rest of
   its set) before the value lands.  The step hook plays that thread once,
   during the first charge.  The landed value must still reach the
   durable image under a Rescue crash, for all four writers. *)
let store_race_survives_rescue clean () =
  List.iter
    (fun (name, write) ->
      let p = small_pmem () in
      let fired = ref false in
      Pmem.set_step_hook p (fun ~cost:_ ->
          if not !fired then begin
            fired := true;
            clean p
          end);
      write p;
      Pmem.clear_step_hook p;
      crash p FM.Full_rescue;
      Alcotest.check int64 (name ^ " durable after the rescue") 42L
        (Pmem.load_durable p 0))
    [
      ("store", fun p -> Pmem.store p 0 42L);
      ("store_int", fun p -> Pmem.store_int p 0 42);
      ("cas", fun p -> ignore (Pmem.cas p 0 ~expected:0L ~desired:42L : bool));
      ( "cas_int",
        fun p -> ignore (Pmem.cas_int p 0 ~expected:0 ~desired:42 : bool) );
    ]

let test_pmem_store_race_flush =
  store_race_survives_rescue (fun p -> Pmem.flush p 0)

(* test_small has 8 sets of 2 ways: lines 512 and 1024 share line 0's
   set, and loading both evicts it. *)
let test_pmem_store_race_evict =
  store_race_survives_rescue (fun p ->
      ignore (Pmem.load p 512 : int64);
      ignore (Pmem.load p 1024 : int64))

let test_pmem_peek_costless () =
  let p = small_pmem () in
  Pmem.store p 0 3L;
  let before = Stats.total_ops (Pmem.stats p) in
  Alcotest.check int64 "peek value" 3L (Pmem.peek p 0);
  Alcotest.(check int) "no ops recorded" before (Stats.total_ops (Pmem.stats p))

let test_pmem_journal_history () =
  let p = small_pmem ~journal:true () in
  Pmem.store p 0 1L;
  Pmem.store p 8 2L;
  Pmem.store p 0 3L;
  Alcotest.(check (list (pair int int64)))
    "history in order"
    [ (0, 1L); (8, 2L); (0, 3L) ]
    (Pmem.store_history p)

let test_pmem_eviction_preserves_data () =
  (* Write more distinct lines than the cache holds: evictions must land
     in the durable image, so a Discard crash keeps the evicted ones. *)
  let p = small_pmem ~journal:true () in
  let lines = Config.test_small.Config.cache_lines * 4 in
  for i = 0 to lines - 1 do
    Pmem.store p (i * 64) (Int64.of_int (i + 1))
  done;
  let st = Pmem.stats p in
  Alcotest.(check bool) "evictions happened" true (st.Stats.writebacks > 0);
  crash p FM.Full_discard;
  let survived = lines - Pmem.lost_store_count p in
  Alcotest.(check bool)
    (Printf.sprintf "most lines survived via eviction (%d/%d)" survived lines)
    true
    (survived >= lines - Config.test_small.Config.cache_lines)

let test_stats_reset_and_hit_rate () =
  let p = small_pmem () in
  Pmem.store p 0 1L;
  ignore (Pmem.load p 0);
  let st = Pmem.stats p in
  Alcotest.(check bool) "hit rate 0.5" true (abs_float (Stats.hit_rate st -. 0.5) < 1e-9);
  Stats.reset st;
  Alcotest.(check int) "reset" 0 (Stats.total_ops st);
  Alcotest.(check bool) "hit rate nan" true (Float.is_nan (Stats.hit_rate st))

let test_cost_model () =
  Alcotest.(check bool) "seconds" true
    (abs_float (Cost_model.seconds Config.desktop ~cycles:3_400_000_000 -. 1.0)
     < 1e-9);
  let m =
    Cost_model.miter_per_sec Config.desktop ~iterations:3_660_000
      ~cycles:3_400_000_000
  in
  Alcotest.(check bool) "miter" true (abs_float (m -. 3.66) < 1e-6);
  Alcotest.(check string) "pp kcy" "1.50 kcy"
    (Format.asprintf "%a" Cost_model.pp_cycles 1500)

(* --- properties --- *)

let prop_rescue_preserves_everything =
  qcheck ~count:100 "crash Rescue preserves every store"
    QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 255) (int_range 0 10_000)))
    (fun ops ->
      let p = small_pmem ~journal:true () in
      List.iter (fun (slot, v) -> Pmem.store p (slot * 8) (Int64.of_int v)) ops;
      crash p FM.Full_rescue;
      Pmem.durable_reflects_all_stores p)

let prop_discard_is_per_word_prefix =
  qcheck ~count:100 "crash Discard leaves each word at some prior value"
    QCheck2.Gen.(list_size (int_range 1 300) (pair (int_range 0 63) (int_range 1 10_000)))
    (fun ops ->
      let p = small_pmem ~journal:true () in
      List.iter (fun (slot, v) -> Pmem.store p (slot * 8) (Int64.of_int v)) ops;
      crash p FM.Full_discard;
      (* For every touched word, the durable value is either the initial
         zero or one of the values stored to that word. *)
      List.for_all
        (fun (slot, _) ->
          let durable = Pmem.load_durable p (slot * 8) in
          Int64.equal durable 0L
          || List.exists
               (fun (s, v) -> s = slot && Int64.equal durable (Int64.of_int v))
               ops)
        ops)

(* The paged images against [Reference_memory], the flat two-[Bytes]
   model they replaced.  The region spans three whole pages and a tail
   that is not a whole page (nor a whole line); addresses favour the
   words on both sides of each page boundary and the last aligned word. *)

type mem_op =
  | Store of int * int64
  | Store_int of int * int
  | Cas of int * bool * int  (* expect the current value, or an arbitrary one *)
  | Write_back of int
  | Write_back_word of int
  | Flip of int * int
  | Discard

let ref_size = (3 * Memory.page_size) + 520

let mem_op_gen =
  let open QCheck2.Gen in
  let ps = Memory.page_size in
  let edges =
    [ 0; ps - 8; ps; (2 * ps) - 8; 2 * ps; (3 * ps) - 8; 3 * ps; ref_size - 8 ]
  in
  let word =
    frequency
      [ (3, map (fun w -> w * 8) (int_range 0 ((ref_size / 8) - 1)));
        (2, oneofl edges) ]
  in
  let line = map (fun a -> min a (ref_size - 64) land lnot 63) word in
  frequency
    [ (4, map2 (fun a v -> Store (a, v)) word int64);
      (4, map2 (fun a v -> Store_int (a, v)) word int);
      (2, map3 (fun a cur v -> Cas (a, cur, v)) word bool int);
      (2, map (fun a -> Write_back a) line);
      (2, map (fun a -> Write_back_word a) word);
      (1, map2 (fun a b -> Flip (a, b)) word (int_range 0 63));
      (1, return Discard) ]

let prop_paged_memory_matches_reference =
  qcheck ~count:200 "paged memory == flat reference on random operations"
    QCheck2.Gen.(list_size (int_range 1 300) mem_op_gen)
    (fun ops ->
      let m = Memory.create ~size:ref_size in
      let r = Reference_memory.create ~size:ref_size in
      List.iter
        (function
          | Store (a, v) ->
              Memory.store m a v;
              Reference_memory.store r a v
          | Store_int (a, v) ->
              Memory.store_int m a v;
              Reference_memory.store_int r a v
          | Cas (a, cur, v) ->
              let expected =
                if cur then Reference_memory.load_int r a else v lxor 1
              in
              let got = Memory.cas_int m a ~expected ~desired:v in
              if got <> Reference_memory.cas_int r a ~expected ~desired:v then
                QCheck2.Test.fail_reportf "cas_int %d diverged" a
          | Write_back a ->
              Memory.write_back m ~line_addr:a ~len:64;
              Reference_memory.write_back r ~line_addr:a ~len:64
          | Write_back_word a ->
              Memory.write_back_word m a;
              Reference_memory.write_back_word r a
          | Flip (addr, bit) ->
              Memory.flip_durable_bit m ~addr ~bit;
              Reference_memory.flip_durable_bit r ~addr ~bit
          | Discard ->
              Memory.discard_current m;
              Reference_memory.discard_current r)
        ops;
      for w = 0 to (ref_size / 8) - 1 do
        let a = w * 8 in
        if
          (not (Int64.equal (Memory.load m a) (Reference_memory.load r a)))
          || not
               (Int64.equal (Memory.load_durable m a)
                  (Reference_memory.load_durable r a))
        then QCheck2.Test.fail_reportf "word %d diverged" a
      done;
      String.equal (Memory.durable_snapshot m)
        (Reference_memory.durable_snapshot r))

let suite =
  ( "nvm",
    [
      case "config: presets valid" test_presets_valid;
      case "config: validate rejects bad geometry" test_validate_rejects;
      case "config: with_region_size rounds up" test_with_region_size;
      case "config: n_sets" test_n_sets;
      case "config: line_size above the page size rejected"
        test_validate_line_size_page;
      case "memory: store/load roundtrip" test_memory_roundtrip;
      case "memory: alignment and bounds" test_memory_alignment;
      case "memory: write_back copies a line" test_memory_write_back;
      case "memory: discard_current drops unsaved data" test_memory_discard;
      case "memory: a fresh desktop device allocates < 1 MiB"
        test_memory_create_footprint;
      case "memory: crash and recover allocate per written page"
        test_memory_recover_footprint;
      case "cache: hit after miss" test_cache_hit_miss;
      case "cache: dirty bit tracking" test_cache_dirty_tracking;
      case "cache: eviction writes dirty victim back"
        test_cache_eviction_writes_back;
      case "cache: LRU victim selection" test_cache_lru_order;
      case "cache: flush_line clwb semantics" test_cache_flush_line;
      case "cache: write_back_all rescues all dirty" test_cache_write_back_all;
      case "cache: drop_all loses dirty silently" test_cache_drop_all;
      case "cache: sets are independent" test_cache_set_isolation;
      case "pmem: store/load" test_pmem_store_load;
      case "pmem: cas atomically succeeds/fails" test_pmem_cas;
      case "pmem: flush makes a line durable" test_pmem_flush_durability;
      case "pmem: Rescue crash keeps all stores" test_pmem_crash_rescue;
      case "pmem: Discard crash loses cached stores" test_pmem_crash_discard;
      case "pmem: operations fail after crash" test_pmem_crash_then_ops_fail;
      case "pmem: recover restores service" test_pmem_recover;
      case "pmem: recover installs the durable image"
        test_pmem_recover_discard_installs_durable;
      case "pmem: recover requires a crash" test_pmem_recover_requires_crash;
      case "pmem: crash_with full-rescue saves every line"
        test_crash_with_full_rescue;
      case "pmem: crash_with full-discard loses dirty lines"
        test_crash_with_full_discard;
      case "pmem: crash_with partial rescue honours the line budget"
        test_crash_with_partial_rescue;
      case "pmem: crash_with partial rescue without a limit rescues all"
        test_crash_with_partial_rescue_unbounded;
      case "pmem: crash_with tears a word prefix" test_crash_with_torn_lines;
      case "pmem: zero-word tear does not count as a write-back"
        test_crash_with_torn_zero_words_no_writeback;
      case "pmem: crash_with torn prob 0 degenerates to rescue"
        test_crash_with_torn_prob_zero_is_rescue;
      case "pmem: crash_with bit rot flips scripted bits"
        test_crash_with_bit_rot;
      case "pmem: crash_with is a pure function of the RNG stream"
        test_crash_with_deterministic_rng;
      case "pmem: crash_with marks the device crashed until recover"
        test_crash_with_then_recover;
      case "pmem: persist_all empties the cache" test_pmem_persist_all;
      case "pmem: step hook sees per-op costs" test_pmem_step_hook;
      case "pmem: a store whose line is flushed during its charge survives \
            a rescue"
        test_pmem_store_race_flush;
      case "pmem: a store whose line is evicted during its charge survives \
            a rescue"
        test_pmem_store_race_evict;
      case "pmem: peek is free" test_pmem_peek_costless;
      case "pmem: journal records history in order" test_pmem_journal_history;
      case "pmem: natural eviction preserves data across Discard"
        test_pmem_eviction_preserves_data;
      case "stats: reset and hit rate" test_stats_reset_and_hit_rate;
      case "cost model conversions" test_cost_model;
      prop_rescue_preserves_everything;
      prop_discard_is_per_word_prefix;
      prop_paged_memory_matches_reference;
    ] )
