(* Tests for the persistent heap: layout codec, kind registry, free
   lists, the allocator, and the recovery-time GC. *)

open Helpers
module Layout = Pheap.Layout
module Kind = Pheap.Kind
module Freelist = Pheap.Freelist
module Heap_gc = Pheap.Heap_gc
module Markset = Pheap.Markset

(* A test kind whose every word is a pointer, distinct from the builtin
   so kind dispatch is exercised. *)
let pair_kind =
  Kind.register ~name:"test_pair"
    ~scan:(fun ~load ~addr ~words ~emit ->
      for i = 0 to words - 1 do
        let v = load (addr + (8 * i)) in
        if v <> 0 then emit v
      done)
    ()

(* --- Layout --- *)

let test_header_roundtrip () =
  let h = Layout.encode_header ~kind:7 ~words:12345 in
  Alcotest.(check bool) "valid" true (Layout.header_valid h);
  Alcotest.(check int) "kind" 7 (Layout.header_kind h);
  Alcotest.(check int) "words" 12345 (Layout.header_words h)

let test_header_validity () =
  Alcotest.(check bool) "zero invalid" false (Layout.header_valid 0L);
  Alcotest.(check bool) "random invalid" false
    (Layout.header_valid 0x123456789ABCDEFL);
  check_raises_invalid "kind too big" (fun () ->
      ignore (Layout.encode_header ~kind:256 ~words:1));
  check_raises_invalid "zero words" (fun () ->
      ignore (Layout.encode_header ~kind:1 ~words:0))

let test_obj_addresses () =
  Alcotest.(check int) "header below data" 92 (Layout.obj_header_addr 100);
  Alcotest.(check int) "total bytes" 32 (Layout.obj_total_bytes ~words:3)

(* --- Kind --- *)

(* Everything [kind]'s scanner emits, in emission order. *)
let emissions ~kind ~load ~words =
  let out = ref [] in
  Kind.scan_object ~kind ~load ~addr:0 ~words ~emit:(fun p ->
      out := p :: !out);
  List.rev !out

let test_kind_builtins () =
  let load _ = 0 in
  Alcotest.(check (list int)) "raw scans nothing" []
    (emissions ~kind:Kind.raw ~load ~words:5);
  let load a = if a = 8 then 128 else if a = 16 then 256 else 0 in
  Alcotest.(check (list int)) "all_pointers emits non-null in word order"
    [ 128; 256 ]
    (emissions ~kind:Kind.all_pointers ~load ~words:3)

let test_kind_registry () =
  Alcotest.(check bool) "registered" true (Kind.is_registered pair_kind);
  Alcotest.(check string) "name" "test_pair" (Kind.name pair_kind);
  Alcotest.(check bool) "free not registered" false
    (Kind.is_registered Layout.kind_free);
  (* Re-registering the same id with the same name is idempotent. *)
  let no_scan ~load:_ ~addr:_ ~words:_ ~emit:_ = () in
  let again =
    Kind.register ~kind:pair_kind ~name:"test_pair" ~scan:no_scan ()
  in
  Alcotest.(check int) "same id" pair_kind again;
  check_raises_invalid "conflicting rebind" (fun () ->
      ignore (Kind.register ~kind:pair_kind ~name:"other" ~scan:no_scan ()));
  check_raises_invalid "unknown kind" (fun () ->
      ignore (emissions ~kind:250 ~load:(fun _ -> 0) ~words:1))

(* --- Freelist --- *)

let test_freelist_exact () =
  let f = Freelist.create () in
  Freelist.add f ~addr:100 ~words:4;
  Alcotest.(check int) "free words" 4 (Freelist.total_free_words f);
  Alcotest.(check (option (pair int int))) "exact hit" (Some (100, 4))
    (Freelist.take f ~words:4);
  Alcotest.(check (option (pair int int))) "empty" None (Freelist.take f ~words:4);
  Alcotest.(check int) "drained" 0 (Freelist.total_free_words f)

let test_freelist_split_rule () =
  let f = Freelist.create () in
  Freelist.add f ~addr:100 ~words:5;
  (* A 5-word block cannot serve a 4-word request: the 1-word remainder
     has no room for a header+payload. *)
  Alcotest.(check (option (pair int int))) "unsplittable" None
    (Freelist.take f ~words:4);
  Freelist.add f ~addr:300 ~words:6;
  Alcotest.(check (option (pair int int))) "smallest splittable" (Some (300, 6))
    (Freelist.take f ~words:4)

let test_freelist_prefers_exact () =
  let f = Freelist.create () in
  Freelist.add f ~addr:100 ~words:10;
  Freelist.add f ~addr:200 ~words:4;
  Alcotest.(check (option (pair int int))) "exact beats larger" (Some (200, 4))
    (Freelist.take f ~words:4);
  Alcotest.(check int) "count" 1 (Freelist.block_count f);
  Freelist.clear f;
  Alcotest.(check int) "cleared" 0 (Freelist.block_count f)

(* [take] answers an empty list without looking up a bucket; a list
   that was drained, or cleared, and then refilled serves its new blocks
   exactly as a fresh one would, bucket by bucket. *)
let test_freelist_empty_and_refilled () =
  let take f words = Freelist.take f ~words in
  let opt = Alcotest.(option (pair int int)) in
  let f = Freelist.create () in
  List.iter
    (fun w -> Alcotest.check opt (Printf.sprintf "fresh: %d words" w) None (take f w))
    [ 1; 4; 1024 ];
  Freelist.add f ~addr:100 ~words:4;
  Freelist.add f ~addr:200 ~words:4;
  Freelist.add f ~addr:300 ~words:1024;
  Alcotest.check opt "last freed first" (Some (200, 4)) (take f 4);
  Alcotest.check opt "then the older" (Some (100, 4)) (take f 4);
  Alcotest.check opt "then a split" (Some (300, 1024)) (take f 4);
  Alcotest.check opt "drained" None (take f 4);
  Alcotest.(check int) "no blocks" 0 (Freelist.block_count f);
  Freelist.add f ~addr:400 ~words:2048;
  Freelist.add f ~addr:500 ~words:3;
  Alcotest.check opt "refilled: exact" (Some (500, 3)) (take f 3);
  Alcotest.check opt "refilled: split" (Some (400, 2048)) (take f 2);
  Freelist.add f ~addr:600 ~words:8;
  Freelist.clear f;
  Alcotest.check opt "cleared" None (take f 8);
  Freelist.add f ~addr:700 ~words:8;
  Alcotest.check opt "refilled after clear" (Some (700, 8)) (take f 8);
  Alcotest.(check int) "free words" 0 (Freelist.total_free_words f)

(* --- Heap --- *)

let test_heap_create_attach () =
  let pmem, heap = small_heap () in
  let size = Config.test_small.Config.region_size in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  Heap.store_field heap a 0 77L;
  Heap.set_root heap a;
  let heap2 = Heap.attach pmem ~base:0 ~size in
  Alcotest.(check int) "root preserved" a (Heap.get_root heap2);
  Alcotest.check int64 "data readable" 77L (Heap.load_field heap2 a 0);
  Alcotest.(check int) "heap_end agrees" (Heap.end_addr heap) (Heap.end_addr heap2)

let test_heap_attach_bad_magic () =
  let pmem = small_pmem () in
  check_raises_corrupt "no heap formatted" (fun () ->
      Heap.attach pmem ~base:0 ~size:4096)

let test_heap_alloc_properties () =
  let _, heap = small_heap () in
  let a = Heap.alloc heap ~kind:pair_kind ~words:3 in
  Alcotest.(check int) "aligned" 0 (a land 7);
  Alcotest.(check int) "kind" pair_kind (Heap.kind_of heap a);
  Alcotest.(check int) "words" 3 (Heap.words_of heap a);
  Alcotest.(check bool) "object start" true (Heap.is_object_start heap a);
  Alcotest.(check bool) "middle is not" false
    (Heap.is_object_start heap (a + 8));
  let b = Heap.alloc heap ~kind:Kind.raw ~words:1 in
  Alcotest.(check bool) "disjoint" true (b >= a + 32);
  check_raises_invalid "zero words" (fun () ->
      ignore (Heap.alloc heap ~kind:Kind.raw ~words:0));
  check_raises_invalid "free kind" (fun () ->
      ignore (Heap.alloc heap ~kind:Layout.kind_free ~words:1))

let expect_oom f =
  match f () with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Heap.Out_of_memory -> ()

let test_heap_oom () =
  let _, heap = small_heap () in
  expect_oom (fun () ->
      (* The region is 64 KiB; this cannot fit. *)
      ignore (Heap.alloc heap ~kind:Kind.raw ~words:100_000))

let test_heap_free_reuse () =
  let _, heap = small_heap () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:4 in
  let end_before = Heap.end_addr heap in
  Heap.free heap a;
  Alcotest.(check int) "free words tracked" 4 (Heap.free_words heap);
  let b = Heap.alloc heap ~kind:Kind.raw ~words:4 in
  Alcotest.(check int) "same block reused" a b;
  Alcotest.(check int) "no bump growth" end_before (Heap.end_addr heap)

let test_heap_free_split () =
  let _, heap = small_heap () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:10 in
  Heap.free heap a;
  let b = Heap.alloc heap ~kind:Kind.raw ~words:4 in
  Alcotest.(check int) "front of old block" a b;
  (* Remainder: 10 - 4 - 1 header = 5 words, immediately reusable. *)
  let c = Heap.alloc heap ~kind:Kind.raw ~words:5 in
  Alcotest.(check int) "remainder reused" (a + (5 * 8)) c

let test_heap_double_free () =
  let _, heap = small_heap () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  Heap.free heap a;
  check_raises_invalid "double free" (fun () -> Heap.free heap a);
  check_raises_invalid "free bad addr" (fun () -> Heap.free heap 24)

let test_heap_fields () =
  let _, heap = small_heap () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:3 in
  Heap.store_field heap a 0 1L;
  Heap.store_field_int heap a 1 2;
  Alcotest.check int64 "field 0" 1L (Heap.load_field heap a 0);
  Alcotest.(check int) "field 1" 2 (Heap.load_field_int heap a 1);
  Alcotest.(check bool) "cas ok" true
    (Heap.cas_field heap a 0 ~expected:1L ~desired:5L);
  Alcotest.(check bool) "cas stale" false
    (Heap.cas_field heap a 0 ~expected:1L ~desired:6L);
  Alcotest.(check bool) "cas_int" true
    (Heap.cas_field_int heap a 1 ~expected:2 ~desired:9)

let test_heap_iter_blocks () =
  let _, heap = small_heap () in
  let a = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  let b = Heap.alloc heap ~kind:pair_kind ~words:3 in
  Heap.free heap a;
  let seen = ref [] in
  Heap.iter_blocks heap (fun ~addr ~kind ~words ->
      seen := (addr, kind, words) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "all blocks in address order"
    [ (a, Layout.kind_free, 2); (b, pair_kind, 3) ]
    (List.rev !seen)

let test_heap_root_defaults_null () =
  let _, heap = small_heap () in
  Alcotest.(check int) "null root" Heap.null (Heap.get_root heap)

(* --- GC --- *)

let alloc_cell heap next =
  let c = Heap.alloc heap ~kind:pair_kind ~words:2 in
  Heap.store_field heap c 0 0L;
  Heap.store_field_int heap c 1 next;
  c

let test_gc_reclaims_garbage () =
  let _, heap = small_heap () in
  let live = alloc_cell heap Heap.null in
  let _garbage = alloc_cell heap Heap.null in
  let _garbage2 = Heap.alloc heap ~kind:Kind.raw ~words:5 in
  Heap.set_root heap live;
  let stats, _ = Heap_gc.collect heap in
  Alcotest.(check int) "one live" 1 stats.Heap_gc.live_objects;
  Alcotest.(check int) "two freed" 2 stats.Heap_gc.freed_objects;
  Alcotest.(check int) "no dangling" 0 stats.Heap_gc.dangling_refs;
  (* The two adjacent dead blocks coalesce into one free block. *)
  Alcotest.(check int) "coalesced" 1 stats.Heap_gc.coalesced_blocks;
  Alcotest.(check bool) "free space reusable" true (Heap.free_words heap > 0)

let test_gc_preserves_reachable_chain () =
  let _, heap = small_heap () in
  let c3 = alloc_cell heap Heap.null in
  let c2 = alloc_cell heap c3 in
  let c1 = alloc_cell heap c2 in
  Heap.set_root heap c1;
  let stats, _ = Heap_gc.collect heap in
  Alcotest.(check int) "chain live" 3 stats.Heap_gc.live_objects;
  Alcotest.(check int) "nothing freed" 0 stats.Heap_gc.freed_objects;
  Alcotest.check int64 "chain intact" (Int64.of_int c3)
    (Heap.load_field heap c2 1)

let test_gc_handles_cycles () =
  let _, heap = small_heap () in
  let a = alloc_cell heap Heap.null in
  let b = alloc_cell heap a in
  Heap.store_field_int heap a 1 b (* a <-> b *);
  Heap.set_root heap a;
  let stats, _ = Heap_gc.collect heap in
  Alcotest.(check int) "cycle live" 2 stats.Heap_gc.live_objects

let test_gc_null_root_frees_all () =
  let _, heap = small_heap () in
  ignore (alloc_cell heap Heap.null);
  ignore (alloc_cell heap Heap.null);
  let stats, _ = Heap_gc.collect heap in
  Alcotest.(check int) "none live" 0 stats.Heap_gc.live_objects;
  Alcotest.(check int) "all freed" 2 stats.Heap_gc.freed_objects

let test_gc_counts_dangling () =
  let _, heap = small_heap () in
  let a = alloc_cell heap Heap.null in
  Heap.store_field_int heap a 1 (Heap.end_addr heap + 64) (* wild pointer *);
  Heap.set_root heap a;
  let stats, _ = Heap_gc.collect heap in
  Alcotest.(check int) "dangling counted" 1 stats.Heap_gc.dangling_refs

let test_gc_marked_pointers_followed () =
  (* The GC must strip skip-list-style low tag bits before chasing. *)
  let _, heap = small_heap () in
  let target = alloc_cell heap Heap.null in
  let a = Heap.alloc heap ~kind:pair_kind ~words:2 in
  Heap.store_field_int heap a 0 (target lor 1) (* marked pointer *);
  Heap.store_field heap a 1 0L;
  Heap.set_root heap a;
  let stats, _ = Heap_gc.collect heap in
  Alcotest.(check int) "both live" 2 stats.Heap_gc.live_objects;
  Alcotest.(check int) "no dangling" 0 stats.Heap_gc.dangling_refs

let test_gc_rebuilds_allocator () =
  let _, heap = small_heap () in
  let keep = alloc_cell heap Heap.null in
  let dead = Heap.alloc heap ~kind:Kind.raw ~words:6 in
  ignore (dead : int);
  Heap.set_root heap keep;
  ignore (Heap_gc.collect heap : Heap_gc.stats * Heap_gc.quarantine);
  (* The swept space must satisfy an allocation without bump growth. *)
  let end_before = Heap.end_addr heap in
  let b = Heap.alloc heap ~kind:Kind.raw ~words:6 in
  Alcotest.(check int) "reused swept block" dead b;
  Alcotest.(check int) "no growth" end_before (Heap.end_addr heap)

let test_verify_clean_heap () =
  let _, heap = small_heap () in
  let a = alloc_cell heap Heap.null in
  Heap.set_root heap a;
  match Heap_gc.verify heap with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_verify_detects_smashed_header () =
  let pmem, heap = small_heap () in
  let a = alloc_cell heap Heap.null in
  Heap.set_root heap a;
  (* Corrupt the header word directly through the device. *)
  Pmem.store pmem (Layout.obj_header_addr a) 0xDEADL;
  (match Heap_gc.verify heap with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verify accepted a smashed header");
  check_raises_corrupt "iter_blocks also rejects" (fun () ->
      Heap.iter_blocks heap (fun ~addr:_ ~kind:_ ~words:_ -> ()))

let test_verify_detects_wild_pointer () =
  let _, heap = small_heap () in
  let a = alloc_cell heap Heap.null in
  Heap.store_field_int heap a 1 (a + 8) (* interior pointer: invalid *);
  Heap.set_root heap a;
  match Heap_gc.verify heap with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verify accepted a wild pointer"

(* A root table pointing at cells [b; c; d], then one garbage cell, with
   b's header damaged by [damage].  Pure function of [damage], so every
   call builds the same image. *)
let damaged_heap damage =
  let pmem, heap = small_heap () in
  let a = Heap.alloc heap ~kind:Kind.all_pointers ~words:3 in
  let b = alloc_cell heap Heap.null in
  let c = alloc_cell heap Heap.null in
  let d = alloc_cell heap Heap.null in
  ignore (alloc_cell heap Heap.null : int);
  List.iteri (fun i p -> Heap.store_field_int heap a i p) [ b; c; d ];
  Heap.set_root heap a;
  let h = Layout.obj_header_addr b in
  Pmem.store pmem h (damage (Pmem.peek pmem h));
  (pmem, heap)

(* Eager, streamed and incremental collection share one sweep planner,
   so a header they cannot parse quarantines the same tail in every
   mode, and nothing from it reaches the allocator. *)
let check_modes_agree damage () =
  let run collect =
    let pmem, heap = damaged_heap damage in
    let stats, quarantine = collect heap in
    let stats = { stats with Heap_gc.mark_cycles = 0; sweep_cycles = 0 } in
    let image =
      Workload.Recovery_scaling.image_hash pmem ~lo:(Heap.base heap)
        ~hi:(Heap.end_addr heap)
    in
    (stats, quarantine, image, Heap.free_words heap)
  in
  let ((stats, quarantine, _, free) as eager) = run Heap_gc.collect in
  Alcotest.(check int) "only the root table is walked live" 1
    stats.Heap_gc.live_objects;
  Alcotest.(check int) "the damaged cell dangles" 1 stats.Heap_gc.dangling_refs;
  Alcotest.(check int) "b's header to the heap end quarantined" 12
    quarantine.Heap_gc.quarantined_words;
  Alcotest.(check int) "nothing handed to the allocator" 0 free;
  let same name r =
    Alcotest.(check bool) (name ^ " = eager") true (r = eager)
  in
  same "streamed" (run (fun heap -> Heap_gc.collect_streamed heap));
  same "incremental"
    (run (fun heap ->
         Heap_gc.Incremental.finish (Heap_gc.Incremental.start heap)))

let test_reachable_set () =
  let _, heap = small_heap () in
  let c2 = alloc_cell heap Heap.null in
  let c1 = alloc_cell heap c2 in
  let orphan = alloc_cell heap Heap.null in
  Heap.set_root heap c1;
  let marks = Heap_gc.reachable heap in
  Alcotest.(check bool) "c1" true (Markset.mem marks c1);
  Alcotest.(check bool) "c2" true (Markset.mem marks c2);
  Alcotest.(check bool) "orphan" false (Markset.mem marks orphan)

(* The mark set's edges.  Three blocks tile an 8-word span, one bitmap
   byte: the root [first] (2 words) points at [last] (1 word, at
   [end_addr - 8]) and [last] back at [first]; [filler] between them is
   garbage.  Only the two objects read marked: not the header word at
   [start_addr], an interior word, [end_addr], one word below the span,
   a misaligned address inside a marked word, or an address far outside.
   The last word of the span sets the byte's last bit, so a word index
   one off either way leaves the bitmap. *)
let test_markset_edges () =
  let _, heap = small_heap () in
  let first = Heap.alloc heap ~kind:Kind.all_pointers ~words:2 in
  let filler = Heap.alloc heap ~kind:Kind.raw ~words:2 in
  let last = Heap.alloc heap ~kind:Kind.all_pointers ~words:1 in
  let start = Heap.start_addr heap and stop = Heap.end_addr heap in
  Alcotest.(check int) "an 8-word span" 64 (stop - start);
  Alcotest.(check int) "last is the span's last word" (stop - 8) last;
  Heap.store_field_int heap first 0 last;
  Heap.store_field_int heap first 1 Heap.null;
  Heap.store_field_int heap last 0 first;
  Heap.set_root heap first;
  let marks = Heap_gc.reachable heap in
  Alcotest.(check int) "cardinal" 2 (Markset.cardinal marks);
  List.iter
    (fun (name, a, want) ->
      Alcotest.(check bool) name want (Markset.mem marks a))
    [
      ("start_addr (a header word)", start, false);
      ("first object", first, true);
      ("interior word", first + 8, false);
      ("garbage", filler, false);
      ("last object = end_addr - 8", last, true);
      ("end_addr", stop, false);
      ("start_addr - 8", start - 8, false);
      ("misaligned", first + 4, false);
      ("negative", -8, false);
      ("max_int", max_int, false);
    ];
  Alcotest.(check bool) "re-adding a mark" false (Markset.add marks first);
  Alcotest.(check bool) "adding an interior word" true
    (Markset.add marks (first + 8));
  Alcotest.(check bool) "adding it twice" false (Markset.add marks (first + 8));
  Alcotest.(check int) "cardinal after adds" 3 (Markset.cardinal marks);
  List.iter
    (fun (name, a) ->
      check_raises_invalid ("add " ^ name) (fun () ->
          ignore (Markset.add marks a : bool)))
    [
      ("end_addr", stop);
      ("start_addr - 8", start - 8);
      ("misaligned", first + 4);
      ("negative", -8);
      ("max_int", max_int);
    ]

(* --- properties --- *)

let prop_blocks_tile_heap =
  qcheck ~count:100 "blocks tile the allocated span exactly"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 12))
    (fun sizes ->
      let _, heap = small_heap () in
      let addrs = List.map (fun w -> Heap.alloc heap ~kind:Kind.raw ~words:w) sizes in
      (* Free every other allocation to mix live and free blocks. *)
      List.iteri (fun i a -> if i mod 2 = 0 then Heap.free heap a) addrs;
      let covered = ref (Heap.start_addr heap) in
      let ok = ref true in
      Heap.iter_blocks heap (fun ~addr ~kind:_ ~words ->
          if addr <> !covered + 8 then ok := false;
          covered := addr + (8 * words));
      !ok && !covered = Heap.end_addr heap)

let prop_gc_preserves_exactly_reachable =
  qcheck ~count:60 "GC frees exactly the unreachable objects"
    QCheck2.Gen.(list_size (int_range 1 30) (pair bool (int_range 0 29)))
    (fun spec ->
      let _, heap = small_heap () in
      (* Build a pool of cells; each optionally points at an earlier cell. *)
      let cells =
        List.mapi
          (fun i (linked, target) ->
            let next = if linked && target < i then target else -1 in
            (i, next))
          spec
      in
      let addrs = Array.make (List.length cells) 0 in
      List.iter
        (fun (i, next) ->
          let next_addr = if next >= 0 then addrs.(next) else Heap.null in
          addrs.(i) <- alloc_cell heap next_addr)
        cells;
      (* Root at the last cell; reachability = transitive next chain. *)
      let n = Array.length addrs in
      Heap.set_root heap addrs.(n - 1);
      let rec chain i acc =
        let acc = i :: acc in
        match List.assoc i cells with
        | next when next >= 0 -> chain next acc
        | _ -> acc
      in
      let live = chain (n - 1) [] in
      let stats, _ = Heap_gc.collect heap in
      stats.Heap_gc.live_objects = List.length (List.sort_uniq compare live)
      && stats.Heap_gc.freed_objects = n - List.length (List.sort_uniq compare live))

(* --- verify against the reference audit --- *)

(* A kind whose scanner raises when its first word is 7 and otherwise
   treats every later word as a pointer: a scanner handed an object it
   cannot parse.  The message names the object, so the first one the
   walk reaches decides it. *)
let fussy_kind =
  Kind.register ~name:"test_fussy"
    ~scan:(fun ~load ~addr ~words ~emit ->
      if load addr = 7 then Fmt.invalid_arg "test_fussy: object %d" addr;
      for i = 1 to words - 1 do
        let v = load (addr + (8 * i)) in
        if v <> 0 then emit v
      done)
    ()

(* What a heap word or the root holds, by object index. *)
type link =
  | Null
  | Obj of int * int  (* object, tag bits in the low three *)
  | Interior of int  (* one word past the object's start *)
  | Past_end of int  (* that many words past [heap_end] *)
  | Wild of int

type damage =
  | Flip of int * int  (* object, header bit (63 included) *)
  | Unregistered of int  (* object's header gets kind 200 *)
  | Overrun of int  (* the last block claims that many words too many *)

type recipe = {
  objs : (int * int * link list * bool) list;
      (* kind index, words, one link per word, freed *)
  root : link;
  damages : damage list;
}

(* Three shapes in one generator: well-formed heaps whose links reach
   only live objects (mostly [Ok]); well-formed heaps whose fussy
   objects may hold a 7 (a scanner raises); and heaps with bad links
   and damaged headers (error lists). *)
let gen_recipe =
  let open QCheck2.Gen in
  let* shape =
    frequency
      [ (4, return `Clean); (2, return `Raising); (4, return `Damaged) ]
  in
  let* n = int_range 1 24 in
  let* shapes =
    list_repeat n
      (triple
         (frequency
            [ (1, return 0); (3, return 1); (3, return 2); (2, return 3) ])
         (int_range 1 5)
         (frequency [ (5, return false); (1, return true) ]))
  in
  let live =
    List.concat
      (List.mapi (fun i (_, _, freed) -> if freed then [] else [ i ]) shapes)
  in
  let good =
    if live = [] then return Null
    else
      frequency
        [
          (1, return Null);
          (4, map2 (fun i t -> Obj (i, t)) (oneofl live) (int_range 0 7));
        ]
  in
  let obj_ix = int_range 0 (n - 1) in
  let any =
    frequency
      [
        (3, return Null);
        (10, map2 (fun i t -> Obj (i, t)) obj_ix (int_range 0 7));
        (1, map (fun i -> Interior i) obj_ix);
        (1, map (fun k -> Past_end k) (int_range 0 3));
        (1, map (fun x -> Wild x) (oneof [ return 7; int ]));
      ]
  in
  let link = if shape = `Damaged then any else good in
  let first kind =
    if shape = `Raising && kind = 3 then
      frequency [ (1, return (Wild 7)); (1, link) ]
    else link
  in
  let* objs =
    flatten_l
      (List.map
         (fun (kind, words, freed) ->
           let* l0 = first kind in
           let+ rest = list_repeat (words - 1) link in
           (kind, words, l0 :: rest, freed))
         shapes)
  in
  let* root = link in
  let damage =
    frequency
      [
        (3, map2 (fun i b -> Flip (i, b)) obj_ix (int_range 0 63));
        (1, map (fun i -> Unregistered i) obj_ix);
        (1, map (fun k -> Overrun k) (int_range 1 3));
      ]
  in
  let+ damages =
    if shape = `Damaged then list_size (int_range 0 3) damage else return []
  in
  { objs; root; damages }

let build_recipe r =
  let pmem, heap = small_heap () in
  let kinds = [| Kind.raw; Kind.all_pointers; pair_kind; fussy_kind |] in
  let objs = Array.of_list r.objs in
  let addrs =
    Array.map
      (fun (k, words, _, _) -> Heap.alloc heap ~kind:kinds.(k) ~words)
      objs
  in
  let value = function
    | Null -> Heap.null
    | Obj (i, tag) -> addrs.(i) lor tag
    | Interior i -> addrs.(i) + 8
    | Past_end k -> Heap.end_addr heap + (8 * k)
    | Wild x -> x
  in
  Array.iteri
    (fun i (_, _, links, _) ->
      List.iteri
        (fun j l -> Heap.store_field_int heap addrs.(i) j (value l))
        links)
    objs;
  Array.iteri
    (fun i (_, _, _, freed) -> if freed then Heap.free heap addrs.(i))
    objs;
  Heap.set_root heap (value r.root);
  let header i = Layout.obj_header_addr addrs.(i) in
  List.iter
    (function
      | Flip (i, bit) ->
          Pmem.store pmem (header i)
            (Int64.logxor (Pmem.peek pmem (header i)) (Int64.shift_left 1L bit))
      | Unregistered i ->
          let _, words, _, _ = objs.(i) in
          Pmem.store pmem (header i) (Layout.encode_header ~kind:200 ~words)
      | Overrun k ->
          let last = Array.length objs - 1 in
          let kind, words, _, freed = objs.(last) in
          let kind = if freed then Layout.kind_free else kinds.(kind) in
          Pmem.store pmem (header last)
            (Layout.encode_header ~kind ~words:(words + k)))
    r.damages;
  heap

let verify_outcome verify heap =
  match verify heap with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

(* The flat audit must answer exactly as the original one on random
   heaps, damaged or not: the same [Ok], the same errors in the same
   order, or the same exception from a scanner. *)
let prop_verify_matches_reference =
  qcheck ~count:500 "verify == reference audit on random damaged heaps"
    gen_recipe (fun r ->
      let heap = build_recipe r in
      let got = verify_outcome Heap_gc.verify heap in
      let want = verify_outcome Reference_verify.verify heap in
      let show = function
        | Ok (Ok ()) -> "Ok"
        | Ok (Error es) -> "Error [" ^ String.concat "; " es ^ "]"
        | Error e -> "raised " ^ e
      in
      got = want
      || QCheck2.Test.fail_reportf "verify: %s@.reference: %s" (show got)
           (show want))

let suite =
  ( "pheap",
    [
      case "layout: header roundtrip" test_header_roundtrip;
      case "layout: validity and limits" test_header_validity;
      case "layout: address helpers" test_obj_addresses;
      case "kind: builtins" test_kind_builtins;
      case "kind: registry discipline" test_kind_registry;
      case "freelist: exact take" test_freelist_exact;
      case "freelist: split rule" test_freelist_split_rule;
      case "freelist: prefers exact size" test_freelist_prefers_exact;
      case "freelist: take on an empty and a refilled list"
        test_freelist_empty_and_refilled;
      case "heap: create/attach roundtrip" test_heap_create_attach;
      case "heap: attach rejects bad magic" test_heap_attach_bad_magic;
      case "heap: alloc invariants" test_heap_alloc_properties;
      case "heap: out of memory" test_heap_oom;
      case "heap: free and reuse" test_heap_free_reuse;
      case "heap: split on reuse" test_heap_free_split;
      case "heap: double free rejected" test_heap_double_free;
      case "heap: field access and CAS" test_heap_fields;
      case "heap: iter_blocks" test_heap_iter_blocks;
      case "heap: fresh root is null" test_heap_root_defaults_null;
      case "gc: reclaims garbage and coalesces" test_gc_reclaims_garbage;
      case "gc: preserves reachable chain" test_gc_preserves_reachable_chain;
      case "gc: handles cycles" test_gc_handles_cycles;
      case "gc: null root frees everything" test_gc_null_root_frees_all;
      case "gc: counts dangling references" test_gc_counts_dangling;
      case "gc: strips pointer tag bits" test_gc_marked_pointers_followed;
      case "gc: rebuilds the allocator" test_gc_rebuilds_allocator;
      case "verify: accepts a clean heap" test_verify_clean_heap;
      case "verify: rejects a smashed header" test_verify_detects_smashed_header;
      case "verify: rejects wild pointers" test_verify_detects_wild_pointer;
      case "gc: reachable set" test_reachable_set;
      case "gc: every mode quarantines a header whose magic lost bit 63"
        (check_modes_agree (fun h -> Int64.logxor h Int64.min_int));
      case "gc: every mode quarantines a smashed header"
        (check_modes_agree (fun _ -> 0xDEADL));
      prop_blocks_tile_heap;
      prop_gc_preserves_exactly_reachable;
      prop_verify_matches_reference;
      case "gc: the mark set's edges" test_markset_edges;
    ] )
