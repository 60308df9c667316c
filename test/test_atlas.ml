(* Tests for the Atlas-like runtime: log entry codec, the undo-log ring
   buffers with their sentinel discipline, OCS tracking, dependency
   cascades, pruning, and end-to-end crash rollback. *)

open Helpers
module Mode = Atlas.Mode
module Log_entry = Atlas.Log_entry
module Undo_log = Atlas.Undo_log
module Rt = Atlas.Runtime
module Recovery = Atlas.Recovery
module Heap_gc = Pheap.Heap_gc
module Kind = Pheap.Kind

(* --- Mode --- *)

let test_mode_strings () =
  List.iter
    (fun m ->
      match Mode.of_string (Mode.to_string m) with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    Mode.all;
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Mode.of_string "what"))

let test_mode_flags () =
  Alcotest.(check (list (pair bool bool)))
    "logs/flushes per mode"
    [ (false, false); (true, false); (true, true); (true, true) ]
    (List.map (fun m -> (Mode.logs m, Mode.flushes m)) Mode.all);
  Alcotest.(check (list bool)) "eager data flush only in Log_flush"
    [ false; false; true; false ]
    (List.map Mode.eager_data_flush Mode.all);
  Alcotest.(check (list bool)) "deferred only in Log_flush_async"
    [ false; false; false; true ]
    (List.map Mode.deferred_durability Mode.all)

(* --- Log_entry --- *)

let payloads =
  [
    Log_entry.Begin { ocs = 42 };
    Log_entry.Update { addr = 8192; old = -77L };
    Log_entry.Dep { on_ocs = 3; mutex = 9 };
    Log_entry.Commit { ocs = 42 };
  ]

let write_entry pmem ~at (e : Log_entry.t) =
  let ty, a, b = Log_entry.words e.payload in
  Log_entry.write pmem ~at ~ty ~seq:e.seq ~tid:e.tid ~a ~b

(* The four words of the entry at [at], for decoding from an array. *)
let entry_words pmem ~at = Array.init 4 (fun i -> Pmem.peek pmem (at + (8 * i)))

(* Encode [e] through the device writer and return its four words. *)
let encode (e : Log_entry.t) =
  let pmem = small_pmem () in
  write_entry pmem ~at:0 e;
  entry_words pmem ~at:0

let test_entry_roundtrip () =
  List.iteri
    (fun i payload ->
      let pmem = small_pmem () in
      let e = { Log_entry.seq = 1000 + i; tid = 5; payload } in
      write_entry pmem ~at:64 e;
      match Log_entry.read (Pmem.peek pmem) ~at:64 with
      | Some e' ->
          Alcotest.(check string) "same entry"
            (Format.asprintf "%a" Log_entry.pp e)
            (Format.asprintf "%a" Log_entry.pp e')
      | None -> Alcotest.fail "decode failed")
    payloads

(* The word writer and [read] agree on every payload kind, across the
   whole range of each word: any int for [seq] and the first payload
   word, any [int64] for the second, the low 32 bits of [tid]. *)
let prop_entry_words_roundtrip =
  let pmem = small_pmem () in
  qcheck ~count:500 "log entry: the word writer and read agree on every kind"
    QCheck2.Gen.(
      pair
        (quad (int_range 0 3) int (int_range 0 0xFFFF_FFFF) int)
        (pair ui64 (int_range 0 1_000_000)))
    (fun ((kind, seq, tid, a), (b, mutex)) ->
      let ty, b, expected =
        match kind with
        | 0 -> (Log_entry.begin_ty, 0L, Log_entry.Begin { ocs = a })
        | 1 -> (Log_entry.update_ty, b, Log_entry.Update { addr = a; old = b })
        | 2 ->
            ( Log_entry.dep_ty,
              Int64.of_int mutex,
              Log_entry.Dep { on_ocs = a; mutex } )
        | _ -> (Log_entry.commit_ty, 0L, Log_entry.Commit { ocs = a })
      in
      Log_entry.write pmem ~at:0 ~ty ~seq ~tid ~a ~b;
      match Log_entry.read (Pmem.peek pmem) ~at:0 with
      | Some e -> e = { Log_entry.seq; tid; payload = expected }
      | None -> false)

let test_entry_rejects_garbage () =
  let load _ = 0L in
  Alcotest.(check bool) "zeros invalid" true
    (Option.is_none (Log_entry.read load ~at:0));
  (* Flip one payload bit after encoding: checksum must catch it. *)
  let words =
    encode { Log_entry.seq = 7; tid = 0; payload = Log_entry.Begin { ocs = 1 } }
  in
  words.(2) <- Int64.logxor words.(2) 1L;
  Alcotest.(check bool) "corrupted rejected" true
    (Option.is_none (Log_entry.read (fun a -> words.(a / 8)) ~at:0))

let test_entry_header_written_last () =
  let pmem = small_pmem ~journal:true () in
  write_entry pmem ~at:64
    { Log_entry.seq = 1; tid = 0; payload = Log_entry.Commit { ocs = 1 } };
  let writes = List.rev_map fst (Pmem.store_history pmem) in
  Alcotest.(check int) "four stores" 4 (List.length writes);
  Alcotest.(check int) "header is the final store" 64 (List.hd writes)

(* --- Undo_log --- *)

let log_region pmem = ((Pmem.config pmem).Config.region_size / 2, 16 * 1024)

let fresh_log ?(threads = 2) () =
  let pmem = small_pmem () in
  let base, size = log_region pmem in
  (pmem, Undo_log.format pmem ~base ~size ~num_threads:threads, base)

let entry seq payload = { Log_entry.seq; tid = 0; payload }

(* Sequence numbers of [tid]'s valid window, scanned with costed loads. *)
let scanned_seqs pmem log ~tid =
  match Undo_log.scan_thread log ~tid ~read:(Pmem.load pmem) with
  | Ok (entries, _) ->
      List.map (fun (e : Log_entry.t) -> e.Log_entry.seq) entries
  | Error msg -> Alcotest.fail msg

let test_log_format_attach () =
  let pmem, log, base = fresh_log () in
  Alcotest.(check int) "threads" 2 (Undo_log.num_threads log);
  Alcotest.(check bool) "capacity positive" true
    (Undo_log.capacity_entries log > 0);
  let log2 = Undo_log.attach pmem ~base in
  Alcotest.(check int) "attach sees threads" 2 (Undo_log.num_threads log2);
  check_raises_invalid "bad magic" (fun () ->
      ignore (Undo_log.attach pmem ~base:0))

let test_log_append_scan () =
  let pmem, log, _ = fresh_log () in
  let es =
    [
      entry 1 (Log_entry.Begin { ocs = 1 });
      entry 2 (Log_entry.Update { addr = 64; old = 5L });
      entry 3 (Log_entry.Commit { ocs = 1 });
    ]
  in
  List.iter (fun e -> ignore (Undo_log.append log ~tid:0 e : int)) es;
  Alcotest.(check (list int)) "seqs in order" [ 1; 2; 3 ]
    (scanned_seqs pmem log ~tid:0);
  Alcotest.(check (list int)) "other thread empty" []
    (scanned_seqs pmem log ~tid:1);
  Alcotest.(check int) "live entries" 3 (Undo_log.live_entries log ~tid:0)

let test_log_prune_and_wrap () =
  let pmem, log, _ = fresh_log () in
  let cap = Undo_log.capacity_entries log in
  (* Fill, prune everything, then fill again: the ring must wrap and the
     scan must return only the fresh window. *)
  let last = ref 0 in
  for i = 1 to cap do
    last := Undo_log.append log ~tid:0 (entry i (Log_entry.Begin { ocs = i }))
  done;
  Alcotest.(check int) "full" cap (Undo_log.live_entries log ~tid:0);
  Undo_log.advance_tail log ~tid:0 ~new_tail:(Undo_log.next_slot log !last)
    ~flush:false;
  Alcotest.(check int) "pruned" 0 (Undo_log.live_entries log ~tid:0);
  for i = 1 to 5 do
    ignore
      (Undo_log.append log ~tid:0 (entry (cap + i) (Log_entry.Commit { ocs = i }))
        : int)
  done;
  Alcotest.(check (list int))
    "only fresh entries despite stale valid ones beyond the sentinel"
    [ cap + 1; cap + 2; cap + 3; cap + 4; cap + 5 ]
    (scanned_seqs pmem log ~tid:0)

let test_log_full () =
  let _, log, _ = fresh_log () in
  let cap = Undo_log.capacity_entries log in
  for i = 1 to cap do
    ignore (Undo_log.append log ~tid:0 (entry i (Log_entry.Begin { ocs = i })) : int)
  done;
  Alcotest.check_raises "ring exhausted" (Undo_log.Log_full { tid = 0 })
    (fun () ->
      ignore
        (Undo_log.append log ~tid:0 (entry 999 (Log_entry.Begin { ocs = 999 }))
          : int))

let test_log_flush_entry_counts () =
  let pmem, log, _ = fresh_log () in
  let before = (Pmem.stats pmem).Nvm.Stats.flushes in
  let at = Undo_log.append log ~tid:0 (entry 1 (Log_entry.Begin { ocs = 1 })) in
  Undo_log.flush_entry log ~entry_addr:at;
  Alcotest.(check bool) "at least one flush + fence" true
    ((Pmem.stats pmem).Nvm.Stats.flushes > before);
  Alcotest.(check bool) "fence issued" true
    ((Pmem.stats pmem).Nvm.Stats.fences > 0)

let test_log_scan_stops_at_torn_entry () =
  let pmem, log, _ = fresh_log () in
  let a1 = Undo_log.append log ~tid:0 (entry 1 (Log_entry.Begin { ocs = 1 })) in
  ignore (Undo_log.append log ~tid:0 (entry 2 (Log_entry.Commit { ocs = 1 })) : int);
  ignore (a1 : int);
  (* Tear the second entry by smashing its payload word. *)
  let second = Undo_log.next_slot log a1 in
  Pmem.store pmem (second + 16) 0xFFL;
  Alcotest.(check (list int)) "scan stops before the torn entry" [ 1 ]
    (scanned_seqs pmem log ~tid:0)

(* --- Runtime + Recovery, end to end --- *)

(* Build a full environment: heap in the low half, logs in the high half
   of a small device. *)
let make_env ?(mode = Mode.Log_only) ?(threads = 2) () =
  let pmem = desktop_pmem ~region_mib:2 () in
  let size = (Pmem.config pmem).Config.region_size in
  let log_base = size - (256 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  let atlas =
    Rt.create ~mode ~heap ~log_base ~log_size:(256 * 1024)
      ~num_threads:threads ()
  in
  (pmem, heap, atlas, log_base)

let recover_env pmem ~log_base =
  Pmem.recover pmem;
  let heap = Heap.attach pmem ~base:0 ~size:log_base in
  let report = Recovery.run ~heap ~log_base () in
  (heap, report)

let test_store_requires_ocs () =
  let _, heap, atlas, _ = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  check_raises_invalid "store outside section" (fun () ->
      Rt.store_field atlas ctx a 0 1L)

let test_nolog_store_allowed_anywhere () =
  let _, heap, atlas, _ = make_env ~mode:Mode.No_log () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  Rt.store_field atlas ctx a 0 9L;
  Alcotest.check int64 "stored" 9L (Rt.load_field atlas a 0)

let test_first_store_logged_once () =
  let pmem, heap, atlas, _ = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:4 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  let outcome =
    run_threads_s pmem
      [
        (fun sched ->
          let m = Rt.make_mutex atlas sched in
          Rt.lock atlas ctx m;
          Alcotest.(check int) "begin logged" 1 (Rt.live_log_entries atlas ~tid:0);
          Rt.store_field atlas ctx a 0 1L;
          Rt.store_field atlas ctx a 0 2L (* same word: no new entry *);
          Rt.store_field atlas ctx a 1 3L (* new word: one more *);
          Alcotest.(check int) "begin + 2 updates" 3
            (Rt.live_log_entries atlas ~tid:0);
          Rt.unlock atlas ctx m);
      ]
  in
  Alcotest.(check bool) "completed" true (outcome = Scheduler.Completed);
  Alcotest.(check int) "ocs count" 1 (Rt.ocs_started atlas)

let test_commit_prunes () =
  let pmem, heap, atlas, _ = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m = Rt.make_mutex atlas sched in
           for i = 1 to 10 do
             Rt.with_lock atlas ctx m (fun () ->
                 Rt.store_field atlas ctx a 0 (Int64.of_int i))
           done);
       ]);
  Alcotest.(check int) "log fully pruned" 0 (Rt.live_log_entries atlas ~tid:0);
  Alcotest.(check int) "no retained sections" 0 (Rt.unpruned_ocses atlas)

let test_nested_locks_single_ocs () =
  let pmem, heap, atlas, _ = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m1 = Rt.make_mutex atlas sched in
           let m2 = Rt.make_mutex atlas sched in
           Rt.lock atlas ctx m1;
           let ocs1 = Rt.current_ocs ctx in
           Rt.lock atlas ctx m2;
           Alcotest.(check (option int)) "same section inside" ocs1
             (Rt.current_ocs ctx);
           Alcotest.(check int) "depth 2" 2 (Rt.ocs_depth ctx);
           Rt.store_field atlas ctx a 0 1L;
           Rt.unlock atlas ctx m2;
           Alcotest.(check (option int)) "still open" ocs1 (Rt.current_ocs ctx);
           Rt.unlock atlas ctx m1;
           Alcotest.(check (option int)) "closed" None (Rt.current_ocs ctx));
       ]);
  Alcotest.(check int) "exactly one section" 1 (Rt.ocs_started atlas)

let test_rollback_incomplete_section () =
  let pmem, heap, atlas, log_base = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  Heap.store_field heap a 0 100L;
  Heap.set_root heap a;
  Pmem.persist_all pmem;
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  let outcome =
    run_threads_s pmem ~crash_at_step:220
      [
        (fun sched ->
          let m = Rt.make_mutex atlas sched in
          Rt.lock atlas ctx m;
          Rt.store_field atlas ctx a 0 200L;
          (* Stay inside the section until the crash hits. *)
          for _ = 1 to 1000 do
            Nvm.Pmem.charge pmem 10
          done;
          Rt.unlock atlas ctx m);
      ]
  in
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "crash point not reached");
  crash pmem FM.Full_rescue;
  let heap', report = recover_env pmem ~log_base in
  Alcotest.(check int) "one incomplete" 1 report.Recovery.incomplete;
  Alcotest.(check bool) "an update rolled back" true
    (report.Recovery.updates_applied >= 1);
  Alcotest.check int64 "pre-section value restored" 100L
    (Heap.load_field heap' a 0);
  Alcotest.(check (list string)) "no anomalies" [] report.Recovery.anomalies

let test_committed_section_survives () =
  let pmem, heap, atlas, log_base = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  Heap.store_field heap a 0 1L;
  Heap.set_root heap a;
  Pmem.persist_all pmem;
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m = Rt.make_mutex atlas sched in
           Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 0 2L));
       ]);
  crash pmem FM.Full_rescue;
  let heap', report = recover_env pmem ~log_base in
  Alcotest.(check int) "nothing incomplete" 0 report.Recovery.incomplete;
  Alcotest.(check int) "nothing rolled back" 0 report.Recovery.updates_applied;
  Alcotest.check int64 "committed value kept" 2L (Heap.load_field heap' a 0)

(* The Section 2.3 hazard: a committed section that observed data from a
   section that never committed must also roll back. *)
let test_cascading_rollback () =
  let pmem, heap, atlas, log_base = make_env ~threads:2 () in
  let x = Heap.alloc heap ~kind:Kind.raw ~words:1 in
  let y = Heap.alloc heap ~kind:Kind.raw ~words:1 in
  let z = Heap.alloc heap ~kind:Kind.raw ~words:1 in
  List.iter
    (fun a ->
      Heap.store_field heap a 0 0L;
      ignore a)
    [ x; y; z ];
  Heap.set_root heap x;
  Pmem.persist_all pmem;
  let ctx0 = Rt.thread_ctx atlas ~tid:0 in
  let ctx1 = Rt.thread_ctx atlas ~tid:1 in
  let sched_holder = ref None in
  let get_mutexes () = Option.get !sched_holder in
  let thread_a sched =
    (match !sched_holder with
    | None ->
        let m1 = Rt.make_mutex atlas sched in
        let m2 = Rt.make_mutex atlas sched in
        sched_holder := Some (m1, m2)
    | Some _ -> ());
    let m1, m2 = get_mutexes () in
    Rt.lock atlas ctx0 m1;
    Rt.store_field atlas ctx0 x 0 1L;
    Rt.lock atlas ctx0 m2;
    Rt.store_field atlas ctx0 y 0 1L;
    Rt.unlock atlas ctx0 m2 (* inner release: section stays open *);
    (* Keep the outer section open until the crash. *)
    for _ = 1 to 3000 do
      Nvm.Pmem.charge pmem 10
    done;
    Rt.unlock atlas ctx0 m1
  in
  let thread_b sched =
    (match !sched_holder with
    | None ->
        let m1 = Rt.make_mutex atlas sched in
        let m2 = Rt.make_mutex atlas sched in
        sched_holder := Some (m1, m2)
    | Some _ -> ());
    let _, m2 = get_mutexes () in
    (* Give A time to acquire and release m2 first. *)
    Nvm.Pmem.charge pmem 500;
    Rt.lock atlas ctx1 m2;
    Rt.store_field atlas ctx1 z 0 (Int64.add (Rt.load_field atlas y 0) 10L);
    Rt.unlock atlas ctx1 m2 (* B commits *)
  in
  let outcome =
    run_threads_s pmem ~crash_at_step:2000 [ thread_a; thread_b ]
  in
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash while A was open");
  crash pmem FM.Full_rescue;
  let heap', report = recover_env pmem ~log_base in
  Alcotest.(check int) "A incomplete" 1 report.Recovery.incomplete;
  Alcotest.(check int) "B cascaded" 1 report.Recovery.cascaded;
  Alcotest.check int64 "x undone" 0L (Heap.load_field heap' x 0);
  Alcotest.check int64 "y undone" 0L (Heap.load_field heap' y 0);
  Alcotest.check int64 "z undone despite B committing" 0L
    (Heap.load_field heap' z 0)

let test_log_flush_mode_survives_discard () =
  (* Without TSP, the synchronous flushing must be sufficient on its
     own: crash with Discard and verify both directions (committed data
     kept, interrupted section rolled back from the durable log). *)
  let pmem, heap, atlas, log_base = make_env ~mode:Mode.Log_flush () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  Heap.store_field heap a 0 7L;
  Heap.store_field heap a 1 7L;
  Heap.set_root heap a;
  Pmem.persist_all pmem;
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  let outcome =
    run_threads_s pmem ~crash_at_step:1500
      [
        (fun sched ->
          let m = Rt.make_mutex atlas sched in
          (* First section commits; its data must be durable. *)
          Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 0 8L);
          (* Second section is interrupted mid-flight. *)
          Rt.lock atlas ctx m;
          Rt.store_field atlas ctx a 1 9L;
          for _ = 1 to 2000 do
            Nvm.Pmem.charge pmem 10
          done;
          Rt.unlock atlas ctx m);
      ]
  in
  (match outcome with
  | Scheduler.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash");
  crash pmem FM.Full_discard (* no TSP rescue *);
  let heap', report = recover_env pmem ~log_base in
  Alcotest.check int64 "committed store survived its flush" 8L
    (Heap.load_field heap' a 0);
  Alcotest.check int64 "interrupted store rolled back" 7L
    (Heap.load_field heap' a 1);
  Alcotest.(check int) "one incomplete" 1 report.Recovery.incomplete

let test_flush_counts_by_mode () =
  let flushes mode =
    let pmem, heap, atlas, _ = make_env ~mode () in
    let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
    Heap.set_root heap a;
    Pmem.persist_all pmem;
    let before = (Pmem.stats pmem).Nvm.Stats.flushes in
    let ctx = Rt.thread_ctx atlas ~tid:0 in
    ignore
      (run_threads_s pmem
         [
           (fun sched ->
             let m = Rt.make_mutex atlas sched in
             for i = 1 to 20 do
               Rt.with_lock atlas ctx m (fun () ->
                   Rt.store_field atlas ctx a 0 (Int64.of_int i))
             done);
         ]);
    (Pmem.stats pmem).Nvm.Stats.flushes - before
  in
  Alcotest.(check int) "no-log never flushes" 0 (flushes Mode.No_log);
  Alcotest.(check int) "log-only never flushes (TSP!)" 0 (flushes Mode.Log_only);
  Alcotest.(check bool) "log-flush flushes a lot" true
    (flushes Mode.Log_flush >= 60)

let test_recovery_seq_seed () =
  let pmem, heap, atlas, log_base = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:1 in
  Heap.set_root heap a;
  Pmem.persist_all pmem;
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m = Rt.make_mutex atlas sched in
           Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 0 1L));
       ]);
  crash pmem FM.Full_rescue;
  let heap', report = recover_env pmem ~log_base in
  (* A new runtime seeded past the recovered maximum keeps sequences
     monotone across the restart. *)
  Alcotest.(check bool) "max_seq recovered" true (report.Recovery.max_seq >= 0);
  let atlas' =
    Rt.create ~mode:Mode.Log_only ~heap:heap' ~log_base
      ~log_size:(256 * 1024) ~num_threads:2
      ~first_seq:(report.Recovery.max_seq + 1) ()
  in
  ignore (atlas' : Rt.t)

let test_with_lock_releases_on_exception () =
  let pmem, heap, atlas, _ = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:1 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m = Rt.make_mutex atlas sched in
           (try
              Rt.with_lock atlas ctx m (fun () ->
                  Rt.store_field atlas ctx a 0 1L;
                  failwith "app error")
            with Failure _ -> ());
           (* The mutex must be free and the section closed. *)
           Alcotest.(check int) "depth restored" 0 (Rt.ocs_depth ctx);
           Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 0 2L));
       ]);
  Alcotest.check int64 "usable afterwards" 2L (Rt.load_field atlas a 0)

(* Deferred durability (Log_flush_async): without TSP, committed
   sections beyond the last durability point must roll back; sections
   covered by the watermark must survive a Discard crash. *)
let test_async_rolls_back_uncovered_commits () =
  let pmem, heap, atlas, log_base = make_env ~mode:Mode.Log_flush_async () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:4 in
  for i = 0 to 3 do
    Heap.store_field heap a i 0L
  done;
  Heap.set_root heap a;
  Pmem.persist_all pmem;
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m = Rt.make_mutex atlas sched in
           (* Two committed sections, then a durability point, then two
              more committed sections that stay uncovered. *)
           Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 0 1L);
           Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 1 1L);
           Rt.checkpoint atlas;
           Alcotest.(check bool) "watermark advanced" true
             (Rt.watermark atlas > 0);
           Alcotest.(check int) "pending drained" 0 (Rt.pending_commits atlas);
           Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 2 1L);
           Rt.with_lock atlas ctx m (fun () -> Rt.store_field atlas ctx a 3 1L);
           Alcotest.(check int) "two pending" 2 (Rt.pending_commits atlas));
       ]);
  crash pmem FM.Full_discard (* no TSP: deferred durability must hold *);
  let heap', report = recover_env pmem ~log_base in
  Alcotest.check int64 "covered commit survives" 1L (Heap.load_field heap' a 0);
  Alcotest.check int64 "covered commit survives (2)" 1L
    (Heap.load_field heap' a 1);
  Alcotest.check int64 "uncovered commit rolled back" 0L
    (Heap.load_field heap' a 2);
  Alcotest.check int64 "uncovered commit rolled back (2)" 0L
    (Heap.load_field heap' a 3);
  Alcotest.(check bool) "cascade count includes watermark rollbacks" true
    (report.Recovery.cascaded >= 2)

let test_async_auto_checkpoint () =
  let pmem, heap, atlas, _ = make_env ~mode:Mode.Log_flush_async () in
  (* Recreate with a small interval to trigger automatic checkpoints. *)
  ignore (atlas : Rt.t);
  let log_base = (Pmem.config pmem).Config.region_size - (256 * 1024) in
  let atlas =
    Rt.create ~mode:Mode.Log_flush_async ~heap ~log_base
      ~log_size:(256 * 1024) ~num_threads:1 ~checkpoint_every:4 ()
  in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:1 in
  Heap.set_root heap a;
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m = Rt.make_mutex atlas sched in
           for i = 1 to 10 do
             Rt.with_lock atlas ctx m (fun () ->
                 Rt.store_field atlas ctx a 0 (Int64.of_int i))
           done);
       ]);
  (* 10 commits with interval 4: at least two automatic checkpoints. *)
  Alcotest.(check bool) "watermark advanced automatically" true
    (Rt.watermark atlas > 0);
  Alcotest.(check bool) "pending bounded by interval" true
    (Rt.pending_commits atlas < 4)

let test_async_cheaper_than_eager () =
  (* The ablation: deferred durability must flush strictly less than
     eager per-commit flushing under the same workload. *)
  let flushes mode =
    let pmem, heap, atlas, _ = make_env ~mode () in
    let a = Heap.alloc heap ~kind:Kind.raw ~words:8 in
    Heap.set_root heap a;
    Pmem.persist_all pmem;
    let before = (Pmem.stats pmem).Nvm.Stats.flushes in
    let ctx = Rt.thread_ctx atlas ~tid:0 in
    ignore
      (run_threads_s pmem
         [
           (fun sched ->
             let m = Rt.make_mutex atlas sched in
             for i = 1 to 64 do
               Rt.with_lock atlas ctx m (fun () ->
                   for j = 0 to 7 do
                     Rt.store_field atlas ctx a j (Int64.of_int (i + j))
                   done)
             done);
         ]);
    (Pmem.stats pmem).Nvm.Stats.flushes - before
  in
  let eager = flushes Mode.Log_flush in
  let deferred = flushes Mode.Log_flush_async in
  Alcotest.(check bool)
    (Printf.sprintf "deferred (%d) < eager (%d)" deferred eager)
    true (deferred < eager)

(* Deep nesting stress: many mutexes acquired within one OCS, with
   stores under each.  The log must hold the whole unpruned section and
   commit must prune it all at once. *)
let test_deep_nesting_stress () =
  let pmem, heap, atlas, _ = make_env () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:32 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let mutexes = Array.init 16 (fun _ -> Rt.make_mutex atlas sched) in
           Array.iter (fun m -> Rt.lock atlas ctx m) mutexes;
           Alcotest.(check int) "depth 16" 16 (Rt.ocs_depth ctx);
           for i = 0 to 31 do
             Rt.store_field atlas ctx a i (Int64.of_int i)
           done;
           (* Begin + 32 updates retained while the section is open. *)
           Alcotest.(check int) "all entries retained" 33
             (Rt.live_log_entries atlas ~tid:0);
           for i = 15 downto 0 do
             Rt.unlock atlas ctx mutexes.(i)
           done;
           Alcotest.(check int) "depth restored" 0 (Rt.ocs_depth ctx));
       ]);
  Alcotest.(check int) "fully pruned after commit" 0
    (Rt.live_log_entries atlas ~tid:0);
  Alcotest.(check int) "one section total" 1 (Rt.ocs_started atlas)

(* A section bigger than the ring must fail loudly, not wrap silently. *)
let test_log_full_inside_giant_section () =
  let pmem = desktop_pmem ~region_mib:2 () in
  let size = (Pmem.config pmem).Config.region_size in
  let log_base = size - (64 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  (* Tiny log: a few hundred entries per thread. *)
  let atlas =
    Rt.create ~mode:Mode.Log_only ~heap ~log_base ~log_size:(16 * 1024)
      ~num_threads:1 ()
  in
  let big = Heap.alloc heap ~kind:Kind.raw ~words:2000 in
  let ctx = Rt.thread_ctx atlas ~tid:0 in
  let hit_full = ref false in
  ignore
    (run_threads_s pmem
       [
         (fun sched ->
           let m = Rt.make_mutex atlas sched in
           Rt.lock atlas ctx m;
           (* Once the ring is exhausted, even the commit record cannot
              be appended: the section is stuck until a crash-recovery.
              The error must surface on the store and stay raised on the
              commit path too. *)
           try
             for i = 0 to 1999 do
               Rt.store_field atlas ctx big i 1L
             done;
             Rt.unlock atlas ctx m
           with Undo_log.Log_full _ -> hit_full := true);
       ]);
  Alcotest.(check bool) "overflow detected" true !hit_full

(* Property: for a single thread running a sequence of transactions
   (each an OCS writing a few slots), a crash at ANY step recovers the
   heap to exactly the prefix state: all committed transactions applied,
   nothing else.  This is failure atomicity stated as an executable
   property and searched over random scripts and crash points. *)
let prop_rollback_is_prefix =
  qcheck ~count:40 "rollback recovers the committed prefix exactly"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 12)
           (list_size (int_range 1 4) (pair (int_range 0 15) (int_range 0 999))))
        (int_range 1 400)
        bool)
    (fun (txns, crash_at, flush_mode) ->
      let mode = if flush_mode then Mode.Log_flush else Mode.Log_only in
      let pmem, heap, atlas, log_base = make_env ~mode () in
      let slots = Heap.alloc heap ~kind:Kind.raw ~words:16 in
      for i = 0 to 15 do
        Heap.store_field heap slots i 0L
      done;
      Heap.set_root heap slots;
      Pmem.persist_all pmem;
      let ctx = Rt.thread_ctx atlas ~tid:0 in
      (* Volatile trace of the model state after each commit. *)
      let model = Array.make 16 0L in
      let committed_states = ref [ Array.copy model ] in
      let outcome =
        run_threads_s pmem ~crash_at_step:crash_at
          [
            (fun sched ->
              let m = Rt.make_mutex atlas sched in
              List.iter
                (fun writes ->
                  Rt.with_lock atlas ctx m (fun () ->
                      List.iter
                        (fun (slot, v) ->
                          Rt.store_field atlas ctx slots slot (Int64.of_int v);
                          model.(slot) <- Int64.of_int v)
                        writes);
                  (* The section committed: snapshot the model. *)
                  committed_states := Array.copy model :: !committed_states)
                txns);
          ]
      in
      (match outcome with
      | Scheduler.Crashed _ | Scheduler.Completed -> ()
      | Scheduler.Deadlocked _ -> Alcotest.fail "deadlock");
      (* Under Log_only we need TSP; under Log_flush even a discard
         crash must recover. *)
      crash pmem (if flush_mode then FM.Full_discard else FM.Full_rescue);
      let heap', _report = recover_env pmem ~log_base in
      let recovered = Array.init 16 (fun i -> Heap.load_field heap' slots i) in
      ignore heap;
      (* The recovered state must be the latest committed state.  One
         boundary needs care: the crash can land after the Commit entry
         reached the log but before our volatile snapshot ran (inside
         unlock's trailing cycle charge); then recovery legitimately
         keeps that transaction, whose full effect equals the volatile
         model at crash time. *)
      let latest = List.hd !committed_states in
      recovered = latest || recovered = model)

(* Deferred-durability counterpart of the prefix property: with
   forced durability points at random places and a Discard crash, the
   recovered state must equal SOME committed prefix — specifically one
   at or after the last durability point. *)
let prop_async_recovers_a_prefix =
  qcheck ~count:30 "async + discard recovers a committed prefix"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 10)
           (pair
              (list_size (int_range 1 3) (pair (int_range 0 15) (int_range 0 999)))
              bool (* force a durability point after this txn? *)))
        (int_range 1 400))
    (fun (txns, crash_at) ->
      let pmem, heap, atlas, log_base = make_env ~mode:Mode.Log_flush_async () in
      let slots = Heap.alloc heap ~kind:Kind.raw ~words:16 in
      for i = 0 to 15 do
        Heap.store_field heap slots i 0L
      done;
      Heap.set_root heap slots;
      Pmem.persist_all pmem;
      let ctx = Rt.thread_ctx atlas ~tid:0 in
      let model = Array.make 16 0L in
      let committed_states = ref [ Array.copy model ] in
      ignore
        (run_threads_s pmem ~crash_at_step:crash_at
           [
             (fun sched ->
               let m = Rt.make_mutex atlas sched in
               List.iter
                 (fun (writes, cp) ->
                   Rt.with_lock atlas ctx m (fun () ->
                       List.iter
                         (fun (slot, v) ->
                           Rt.store_field atlas ctx slots slot (Int64.of_int v);
                           model.(slot) <- Int64.of_int v)
                         writes);
                   committed_states := Array.copy model :: !committed_states;
                   if cp then Rt.checkpoint atlas)
                 txns);
           ]);
      crash pmem FM.Full_discard;
      let heap', _ = recover_env pmem ~log_base in
      let recovered = Array.init 16 (fun i -> Heap.load_field heap' slots i) in
      ignore heap;
      List.exists (fun st -> st = recovered) (model :: !committed_states))

(* --- Log_entry fuzz: the decoder is the recovery path's first line of
   defence against adversarial images, so it must be total (never raise)
   and must never accept damaged payload words. --- *)

let prop_entry_decode_total =
  qcheck ~count:1000 "log entry: decoding arbitrary words is total + canonical"
    QCheck2.Gen.(quad ui64 ui64 ui64 ui64)
    (fun (w0, w1, w2, w3) ->
      let words = [| w0; w1; w2; w3 |] in
      match Log_entry.read (fun a -> words.(a / 8)) ~at:0 with
      | None -> true
      | Some e ->
          (* Anything accepted must behave like a legitimate encoding:
             writing the decoded entry back yields an image that decodes
             to the same entry. *)
          let out = encode e in
          (match Log_entry.read (fun a -> out.(a / 8)) ~at:0 with
          | Some e' -> e' = e
          | None -> false))

let gen_payload =
  QCheck2.Gen.(
    oneof
      [
        map (fun o -> Log_entry.Begin { ocs = o }) (int_range 0 10_000);
        map
          (fun (a, old) -> Log_entry.Update { addr = a * 8; old })
          (pair (int_range 0 100_000) ui64);
        map
          (fun (o, m) -> Log_entry.Dep { on_ocs = o; mutex = m })
          (pair (int_range 0 10_000) (int_range 0 1_000));
        map (fun o -> Log_entry.Commit { ocs = o }) (int_range 0 10_000);
      ])

let prop_entry_bitflip_detected =
  qcheck ~count:800 "log entry: a single bit flip never silently alters payload"
    QCheck2.Gen.(
      quad (int_range 1 1_000_000) (int_range 0 0xFFFF) gen_payload
        (int_range 0 255))
    (fun (seq, tid, payload, bit) ->
      let e = { Log_entry.seq; tid; payload } in
      let words = encode e in
      let w = bit / 64 and b = bit mod 64 in
      words.(w) <- Int64.logxor words.(w) (Int64.shift_left 1L b);
      match Log_entry.read (fun a -> words.(a / 8)) ~at:0 with
      | None -> true
      | Some e' ->
          (* The only field outside the checksum's reach is the tid
             (low 32 bits of w0); nothing else may survive a flip. *)
          w = 0 && b < 32
          && e'.Log_entry.seq = e.Log_entry.seq
          && e'.Log_entry.payload = e.Log_entry.payload)

let suite =
  ( "atlas",
    [
      case "mode: string roundtrip" test_mode_strings;
      case "mode: logs/flushes flags" test_mode_flags;
      case "log entry: roundtrip all payloads" test_entry_roundtrip;
      prop_entry_words_roundtrip;
      case "log entry: garbage and corruption rejected"
        test_entry_rejects_garbage;
      case "log entry: header written last" test_entry_header_written_last;
      prop_entry_decode_total;
      prop_entry_bitflip_detected;
      case "undo log: format and attach" test_log_format_attach;
      case "undo log: append/scan roundtrip" test_log_append_scan;
      case "undo log: prune, wrap, sentinel discipline" test_log_prune_and_wrap;
      case "undo log: ring exhaustion raises" test_log_full;
      case "undo log: flush_entry persists synchronously"
        test_log_flush_entry_counts;
      case "undo log: scan stops at a torn entry"
        test_log_scan_stops_at_torn_entry;
      case "runtime: store outside a section rejected" test_store_requires_ocs;
      case "runtime: no-log mode stores anywhere"
        test_nolog_store_allowed_anywhere;
      case "runtime: first store per word logged once"
        test_first_store_logged_once;
      case "runtime: commit prunes the log" test_commit_prunes;
      case "runtime: nested locks form one section"
        test_nested_locks_single_ocs;
      case "recovery: incomplete section rolled back"
        test_rollback_incomplete_section;
      case "recovery: committed section preserved"
        test_committed_section_survives;
      case "recovery: dependency cascade rolls back a committed section"
        test_cascading_rollback;
      case "recovery: log-flush survives a non-TSP crash"
        test_log_flush_mode_survives_discard;
      case "runtime: flush counts per mode" test_flush_counts_by_mode;
      case "recovery: sequence seeding across restart" test_recovery_seq_seed;
      case "runtime: with_lock releases on exception"
        test_with_lock_releases_on_exception;
      prop_rollback_is_prefix;
      case "runtime: deep nesting stress" test_deep_nesting_stress;
      case "undo log: giant section overflows loudly"
        test_log_full_inside_giant_section;
      case "async: uncovered commits roll back, covered survive"
        test_async_rolls_back_uncovered_commits;
      case "async: automatic durability points" test_async_auto_checkpoint;
      case "async: flushes less than eager mode" test_async_cheaper_than_eager;
      prop_async_recovers_a_prefix;
    ] )
