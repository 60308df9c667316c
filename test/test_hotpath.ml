(* The zero-allocation fast path, checked from two directions:

   - equivalence: random load/store/flush/drop traces driven through the
     production SoA cache and through [Reference_cache], the verbatim
     pre-SoA record implementation.  Every observable — access outcome,
     write-back sequence, dirty set, residency — must agree at every
     step.
   - allocation: a long store/load/cas loop through the [_int] device
     operations must not allocate on the minor heap, measured with
     [Gc.minor_words].

   Plus direct unit tests for [Nvm.Intset], the open-addressed set
   behind the runtime's per-store bookkeeping. *)

open Helpers
module Cache = Nvm.Cache
module Intset = Nvm.Intset

(* --- SoA cache vs the reference model --- *)

(* One step of a random trace. *)
type op =
  | Touch of int * bool
  | Flush of int
  | Write_back_all
  | Drop_all

(* Addresses are word-aligned slots into a region spanning 32 lines over
   a 4-set * 2-way cache, so evictions, set conflicts and re-touches all
   happen constantly. *)
let op_gen =
  QCheck2.Gen.(
    let addr = map (fun slot -> slot * 8) (int_range 0 255) in
    frequency
      [
        (6, map2 (fun a d -> Touch (a, d)) addr bool);
        (2, map (fun a -> Flush a) addr);
        (1, return Write_back_all);
        (1, return Drop_all);
      ])

(* Wide sets, where the per-set way hint matters: most touches go to
   [ways + 1] lines of set 0, so the same line is touched again and
   again while its neighbours evict one another; the rest spread over
   a region four times the cache.  Frequent [Drop_all]s leave every
   hint pointing at an emptied way. *)
let wide_op_gen ~sets ~ways =
  QCheck2.Gen.(
    let hot = map (fun j -> j * sets * 64) (int_range 0 ways) in
    let any = map (fun slot -> slot * 8) (int_range 0 ((32 * sets * ways) - 1)) in
    frequency
      [
        (8, map2 (fun a d -> Touch (a, d)) hot bool);
        (3, map2 (fun a d -> Touch (a, d)) any bool);
        (2, map (fun a -> Flush a) (oneof [ hot; any ]));
        (1, return Write_back_all);
        (2, return Drop_all);
      ])

let code_of_ref = function
  | Reference_cache.Hit -> Cache.hit
  | Reference_cache.Miss { evicted_dirty = false } -> Cache.miss_clean
  | Reference_cache.Miss { evicted_dirty = true } -> Cache.miss_dirty

let soa_matches_reference ~count ~sets ~ways ~max_len name gen =
  qcheck ~count name
    QCheck2.Gen.(list_size (int_range 1 max_len) gen)
    (fun ops ->
      let wb_soa = ref [] and wb_ref = ref [] in
      let soa =
        Cache.create ~sets ~ways ~line_size:64 ~write_back:(fun a ->
            wb_soa := a :: !wb_soa)
      in
      let reference =
        Reference_cache.create ~sets ~ways ~line_size:64
          ~write_back:(fun a -> wb_ref := a :: !wb_ref)
      in
      let check_op op =
        (match op with
        | Touch (addr, dirty) ->
            let c = Cache.touch soa ~addr ~dirty in
            let r = code_of_ref (Reference_cache.touch reference ~addr ~dirty) in
            if c <> r then
              QCheck2.Test.fail_reportf "touch %d dirty:%b diverged: soa=%d ref=%d"
                addr dirty c r
        | Flush addr ->
            let c = Cache.flush_line soa ~addr in
            let r = Reference_cache.flush_line reference ~addr in
            if c <> r then QCheck2.Test.fail_reportf "flush %d diverged" addr
        | Write_back_all ->
            let c = Cache.write_back_all soa in
            let r = Reference_cache.write_back_all reference in
            if c <> r then
              QCheck2.Test.fail_reportf "write_back_all diverged: %d/%d" c r
        | Drop_all ->
            let c = Cache.drop_all soa in
            let r = Reference_cache.drop_all reference in
            if c <> r then QCheck2.Test.fail_reportf "drop_all diverged: %d/%d" c r);
        (* Invariants after every step. *)
        if Cache.dirty_count soa <> Reference_cache.dirty_count reference then
          QCheck2.Test.fail_reportf "dirty_count diverged";
        let a = match op with Touch (a, _) | Flush a -> a | _ -> 0 in
        if Cache.cached soa ~addr:a <> Reference_cache.cached reference ~addr:a
        then QCheck2.Test.fail_reportf "cached %d diverged" a;
        if
          Cache.is_dirty soa ~addr:a
          <> Reference_cache.is_dirty reference ~addr:a
        then QCheck2.Test.fail_reportf "is_dirty %d diverged" a
      in
      List.iter check_op ops;
      !wb_soa = !wb_ref
      && Cache.dirty_lines soa = Reference_cache.dirty_lines reference)

let prop_soa_matches_reference =
  soa_matches_reference ~count:300 ~sets:4 ~ways:2 ~max_len:400
    "SoA cache == record-based reference on random traces" op_gen

let prop_soa_matches_reference_8way =
  soa_matches_reference ~count:200 ~sets:4 ~ways:8 ~max_len:600
    "SoA cache == reference on 8-way sets, re-touch and drop heavy"
    (wide_op_gen ~sets:4 ~ways:8)

let prop_soa_matches_reference_16way =
  soa_matches_reference ~count:200 ~sets:2 ~ways:16 ~max_len:600
    "SoA cache == reference on 16-way sets, re-touch and drop heavy"
    (wide_op_gen ~sets:2 ~ways:16)

(* --- allocation regression --- *)

(* The device's int-typed operations must perform zero minor-heap
   allocation once warm, costed and inside [Pmem.cost_free] (where each
   store and successful CAS writes both images).  [Gc.minor_words ()]
   itself boxes a float, so the assertion is per-op with a generous
   constant slack: 10_000 ops must allocate fewer than 100 words in
   total (any boxing bug costs >= 2 words per op = 20_000). *)
let check_zero_alloc_loop ~scope =
  let p = desktop_pmem ~region_mib:1 () in
  let ops = 10_000 in
  let body () =
    let acc = ref 0 in
    for i = 0 to ops - 1 do
      let addr = i * 8 land 0xFFF8 in
      Pmem.store_int p addr i;
      acc := !acc + Pmem.load_int p addr;
      if i land 1023 = 0 then
        ignore (Pmem.cas_int p addr ~expected:i ~desired:(i + 1) : bool)
    done;
    !acc
  in
  let acc, words =
    scope p (fun () ->
        ignore (body () : int) (* warm up: fault in any lazy setup *);
        let before = Gc.minor_words () in
        let acc = body () in
        (acc, Gc.minor_words () -. before))
  in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d ops: %.0f (acc %d)" ops words acc)
    true
    (words < 100.)

let test_zero_alloc_loop () = check_zero_alloc_loop ~scope:(fun _ f -> f ())

let test_cost_free_zero_alloc_loop () =
  check_zero_alloc_loop ~scope:Pmem.cost_free

(* Cross-module inlining, checked by what it saves: [Pmem.load]
   returns an [int64], which crosses a function boundary boxed (3
   words) unless [Memory.load] is inlined into [Pmem.load] and
   [Pmem.load] into this loop.  That takes the build without [-opaque]
   (dune-workspace selects the release profile) and both functions'
   [[@inline]]; with either gone, 10k reads allocate 30,000 words.  So
   this case fails under [--profile dev], on purpose. *)
let test_boxed_load_inlined () =
  let p = desktop_pmem ~region_mib:1 () in
  let ops = 10_000 in
  for i = 0 to 511 do
    Pmem.store_int p (i * 8) i
  done;
  let body () =
    let acc = ref 0 in
    for i = 0 to ops - 1 do
      acc := !acc + Int64.to_int (Pmem.load p (i * 8 land 0xFF8))
    done;
    !acc
  in
  ignore (body () : int);
  let before = Gc.minor_words () in
  let acc = body () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d boxed-load reads: %.0f (acc %d)" ops
       words acc)
    true (words < 100.)

(* A context switch must not allocate per step either: eight threads
   whose charges hand the CPU to another thread (costs 1000 + tid with
   no jitter keep the clocks within one charge of each other for the
   first 1000 / 7 rounds) go through the effect handler and the pick on
   each step.  The budget of 8 words per step covers the continuation
   the runtime allocates at each suspension and the option holding it;
   the rest of the switch path allocates nothing. *)
let test_switch_alloc () =
  let threads = 8 and rounds = 120 in
  let sched = Scheduler.create ~seed:3 () in
  let order = Array.make (threads * rounds) (-1) in
  let n = ref 0 in
  for tid = 0 to threads - 1 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for _ = 1 to rounds do
             order.(!n) <- tid;
             incr n;
             Scheduler.step sched ~cost:(1000 + tid)
           done)
        : int)
  done;
  let before = Gc.minor_words () in
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  let words = Gc.minor_words () -. before in
  let steps = Scheduler.total_steps sched in
  Alcotest.(check int) "steps" (threads * rounds) steps;
  (* The first round starts from tied clocks, in an order the seed
     draws; if thread 0 runs last it is still the pick for the first
     step of round two.  Every other step switches. *)
  for i = 1 to steps - 1 do
    if i <> threads && order.(i) = order.(i - 1) then
      Alcotest.failf "step %d did not switch threads" i
  done;
  let per_step = words /. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per switching step: %.1f" per_step)
    true (per_step <= 8.)

(* The same bound when the clocks tie: every charge costs 1000 with no
   jitter, so each round of eight steps starts from one clock.  The
   round's first two picks draw in the minimum group (eight, then seven
   threads at the round's clock, the rest one charge above), and the
   other six walk the thread table, as two or more threads tie above
   the minimum: the group draws and the prefix-tie walk both run on
   every round. *)
let test_switch_alloc_ties () =
  let threads = 8 and rounds = 120 in
  let sched = Scheduler.create ~seed:3 () in
  for _ = 0 to threads - 1 do
    ignore
      (Scheduler.spawn sched (fun () ->
           for _ = 1 to rounds do
             Scheduler.step sched ~cost:1000
           done)
        : int)
  done;
  let before = Gc.minor_words () in
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  let words = Gc.minor_words () -. before in
  let steps = Scheduler.total_steps sched in
  Alcotest.(check int) "steps" (threads * rounds) steps;
  let per_step = words /. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per tied switching step: %.1f" per_step)
    true (per_step <= 8.)

(* The jitter draw every charge makes, and the tie draws of the pick,
   allocate nothing: 100k draws each of [Sim_rng.int] at a power-of-two
   bound (the jitter bound 4) and at another bound (7), and of
   [Sim_rng.bool], stay under the usual 100-word slack. *)
let test_rng_draw_alloc () =
  let n = 100_000 in
  let r = Sched.Sim_rng.create ~seed:17 in
  let body () =
    let acc = ref 0 in
    for _ = 1 to n do
      acc := !acc + Sched.Sim_rng.int r 4 + Sched.Sim_rng.int r 7;
      if Sched.Sim_rng.bool r then incr acc
    done;
    !acc
  in
  ignore (body () : int);
  let before = Gc.minor_words () in
  let acc = body () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d draws: %.0f (acc %d)" (3 * n) words acc)
    true (words < 100.)

(* --- map searches --- *)

(* The map searches allocate nothing: the skip list's [find] and
   [link_upper] are top-level loops over the thread's scratch pair, and
   the hash map's chain search returns an address, not an option.  With
   the per-call search arrays and closures, an insert allocated 396
   words and a hash-map [get] or [incr] 23.5. *)

(* 4,096 fresh keys in a scattered order, each an insert with a random
   tower: one [find] plus one per upper level it links.  The value is a
   constant, so the loop itself boxes nothing.  A fresh key cannot be
   inserted twice, so the one measured pass is not warmed up; the pages
   it materialises are major-heap blocks. *)
let test_skiplist_insert_alloc () =
  let keys = 4_096 in
  let pmem = desktop_pmem ~region_mib:2 () in
  let size = (Pmem.config pmem).Config.region_size in
  let heap = Heap.create pmem ~base:0 ~size in
  let sl = Tsp_maps.Lockfree_skiplist.create heap ~num_threads:1 ~seed:5 () in
  let before = Gc.minor_words () in
  for i = 0 to keys - 1 do
    Tsp_maps.Lockfree_skiplist.set_plain sl ~key:(i * 2_654_435 land 0xFFFFF)
      ~value:1L
  done;
  let per_insert = (Gc.minor_words () -. before) /. float_of_int keys in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per skip-list insert: %.1f" per_insert)
    true (per_insert < 1.)

(* Minor words per [get] or [incr] on present keys of a hash map under
   Atlas [mode], inside a simulated thread (the operations take the
   bucket's mutex), averaged over a second, warm pass. *)
let hashmap_get_incr_words ~mode =
  let keys = 2_048 and rounds = 4 in
  let pmem = desktop_pmem ~region_mib:4 () in
  let size = (Pmem.config pmem).Config.region_size in
  let log_base = size - (512 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  let atlas =
    Atlas.Runtime.create ~mode ~heap ~log_base ~log_size:(512 * 1024)
      ~num_threads:1 ()
  in
  let sched = Scheduler.create ~seed:5 () in
  let hm = Tsp_maps.Chained_hashmap.create heap ~atlas ~sched ~n_buckets:512 () in
  for k = 0 to keys - 1 do
    Tsp_maps.Chained_hashmap.set_plain hm ~key:k ~value:0L
  done;
  let ops = Tsp_maps.Chained_hashmap.ops hm in
  let body () =
    for _ = 1 to rounds do
      for k = 0 to keys - 1 do
        ignore (ops.Tsp_maps.Map_intf.get ~tid:0 ~key:k : int64 option);
        ops.Tsp_maps.Map_intf.incr ~tid:0 ~key:k ~by:1L
      done
    done
  in
  let per_op = ref nan in
  ignore
    (Scheduler.spawn sched (fun () ->
         body ();
         let before = Gc.minor_words () in
         body ();
         per_op :=
           (Gc.minor_words () -. before) /. float_of_int (2 * keys * rounds))
      : int);
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Pmem.set_quantum pmem (Scheduler.quantum_handle sched);
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  Pmem.clear_quantum pmem;
  Pmem.clear_step_hook pmem;
  !per_op

(* Log-free: what a [get] or [incr] still allocates, 6 words an
   operation on average, is outside the search and the critical
   section's code: the option and boxed value a [get] returns, the
   boxed sum an [incr] hands to Atlas, and the [Some] owner the
   scheduler's mutex records at each lock.  With the section passed to
   [Rt.with_lock] as a closure it was 13. *)
let test_hashmap_get_incr_alloc () =
  let per_op = hashmap_get_incr_words ~mode:Atlas.Mode.No_log in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per hash-map get or incr: %.1f" per_op)
    true (per_op < 7.)

(* Log-only adds the section's bookkeeping: a Begin and a Commit entry
   for every operation and an Update for an [incr]'s first store.  An
   append writes its words straight to the device (no entry record,
   payload, tuple, boxed word or store closure) and the section table
   is int-keyed, so that costs about 38 words an operation; with
   record appends through polymorphic [Hashtbl] it cost 107.5. *)
let test_hashmap_log_only_alloc () =
  let per_op = hashmap_get_incr_words ~mode:Atlas.Mode.Log_only in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per log-only hash-map get or incr: %.1f"
       per_op)
    true (per_op < 45.)

(* [Populate.build] inserts its keys inside [Pmem.cost_free].  Per
   object it allocates no more minor words than [Machine.create] plus
   the costed [Populate.fill] building the same 20k-object log-only
   heap (4.0 against 5.2 words): a cost-free store that boxed its word
   would add 3 words for every one it writes. *)
let test_populate_alloc () =
  let module Machine = Workload.Machine in
  let module Populate = Workload.Populate in
  let objects = 20_000 and seed = 3 in
  let spec =
    Workload.Recovery_scaling.default_spec
      ~variant:(Machine.Mutex_map Atlas.Mode.Log_only) ~seed
  in
  let per_object build =
    let before = Gc.minor_words () in
    ignore (build () : Machine.t);
    (Gc.minor_words () -. before) /. float_of_int objects
  in
  let costed () =
    let m = Machine.create (Populate.sized_spec spec ~objects) in
    Populate.fill m ~objects ~seed;
    m
  in
  let reference = per_object costed in
  let free = per_object (fun () -> Populate.build spec ~objects ~seed) in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per object: cost-free %.2f, costed %.2f" free
       reference)
    true (free <= reference)

(* --- Intset --- *)

let test_intset_basics () =
  let s = Intset.create ~capacity:8 () in
  Alcotest.(check bool) "empty" false (Intset.mem s 0);
  Alcotest.(check bool) "first add" true (Intset.add s 64);
  Alcotest.(check bool) "second add is a no-op" false (Intset.add s 64);
  Alcotest.(check bool) "mem" true (Intset.mem s 64);
  Alcotest.(check int) "cardinal" 1 (Intset.cardinal s);
  Intset.clear s;
  Alcotest.(check bool) "cleared" false (Intset.mem s 64);
  Alcotest.(check int) "cardinal 0" 0 (Intset.cardinal s);
  Alcotest.(check bool) "re-add after clear" true (Intset.add s 64)

let test_intset_growth_and_order () =
  let s = Intset.create ~capacity:8 () in
  (* Line-like addresses (multiples of 64) force the hash to mix high
     bits; push far past the initial capacity. *)
  for i = 0 to 999 do
    Alcotest.(check bool) "insert fresh" true (Intset.add s (i * 64))
  done;
  Alcotest.(check int) "cardinal" 1000 (Intset.cardinal s);
  for i = 0 to 999 do
    Alcotest.(check bool) "still present" true (Intset.mem s (i * 64))
  done;
  (* Iteration is insertion order, regardless of growth history. *)
  let seen = ref [] in
  Intset.iter (fun x -> seen := x :: !seen) s;
  let expected = List.init 1000 (fun i -> (999 - i) * 64) in
  Alcotest.(check (list int)) "insertion order" expected !seen

let prop_intset_matches_hashtbl =
  qcheck ~count:200 "Intset == Hashtbl on random add/clear traces"
    QCheck2.Gen.(
      list_size (int_range 1 300)
        (frequency
           [ (10, map (fun x -> `Add (x * 8)) (int_range 0 500)); (1, return `Clear) ]))
    (fun ops ->
      let s = Intset.create ~capacity:8 () in
      let h = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          match op with
          | `Add x ->
              let fresh = not (Hashtbl.mem h x) in
              Hashtbl.replace h x ();
              Intset.add s x = fresh
              && Intset.mem s x
              && Intset.cardinal s = Hashtbl.length h
          | `Clear ->
              Hashtbl.reset h;
              Intset.clear s;
              Intset.cardinal s = 0)
        ops)

(* Membership and insertion allocate nothing: 10k calls of each, on
   fresh and present members alike, into a set sized so that no call
   grows it.  A probe loop written as a local [let rec] builds its
   closure on every call (5-6 words). *)
let test_intset_alloc () =
  let n = 10_000 in
  let s = Intset.create ~capacity:(4 * n) () in
  let body base =
    let hits = ref 0 in
    for i = 0 to n - 1 do
      let x = base + (i * 64) in
      if Intset.add s x then incr hits;
      if Intset.mem s x then incr hits
    done;
    !hits
  in
  let before = Gc.minor_words () in
  let fresh = body 0 in
  let present = body 0 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "fresh adds and hits" (2 * n) fresh;
  Alcotest.(check int) "present: mem hits only" n present;
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d add + %d mem calls: %.0f" (2 * n)
       (2 * n) words)
    true (words < 100.)

(* One full [Kind.scan_object] call per object is what every recovery
   scan makes.  The lookup and the call allocate nothing, so 10k calls
   of a builtin scanner stay under the usual 100-word slack. *)
let test_scan_object_alloc () =
  let n = 10_000 in
  let sum = ref 0 in
  let load a = a lsr 3 in
  let emit p = sum := !sum + p in
  let body () =
    for i = 0 to n - 1 do
      Pheap.Kind.scan_object ~kind:Pheap.Kind.all_pointers ~load ~addr:(8 * i)
        ~words:4 ~emit
    done
  in
  body ();
  let before = Gc.minor_words () in
  body ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d scan_object calls: %.0f (sum %d)" n
       words !sum)
    true (words < 100.)

(* The DL check of a served shard compares every key no write touched
   with its initial value, which [Serve] computes from the key.  [same]
   compares without building that value, so at the 16,505 keys of the
   [service_crash] victim an all-untouched check allocates under one
   minor word a key; a [value] closure's boxed [int64] cost 3.  The
   arrays the check sizes by the key count go to the major heap. *)
let test_dl_untouched_alloc () =
  let n = 16_505 in
  let keys = Array.init n (fun i -> 1024 + (4 * i)) in
  let recovered =
    Array.to_list (Array.map (fun k -> (k, Int64.of_int k)) keys)
  in
  let dl () =
    Check.Dl.check_keys ~keys
      ~value:(fun i -> Int64.of_int keys.(i))
      ~same:(fun i v -> Int64.equal v (Int64.of_int keys.(i)))
      ~records:[] ~recovered
  in
  ignore (dl () : Check.Dl.verdict);
  let before = Gc.minor_words () in
  let verdict = dl () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "explained" true (Check.Dl.is_explained verdict);
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d untouched keys: %.0f" n words)
    true
    (words < float_of_int n)

let suite =
  ( "hotpath",
    [
      prop_soa_matches_reference;
      prop_soa_matches_reference_8way;
      prop_soa_matches_reference_16way;
      case "device int ops allocate nothing" test_zero_alloc_loop;
      case "an inlined Pmem.load read as an int allocates nothing"
        test_boxed_load_inlined;
      case "cost-free device int ops allocate nothing"
        test_cost_free_zero_alloc_loop;
      case "context switches allocate at most 8 words a step"
        test_switch_alloc;
      case "rng draws allocate nothing" test_rng_draw_alloc;
      case "skip-list inserts: the searches allocate nothing"
        test_skiplist_insert_alloc;
      case "hash-map get and incr allocate under 7 words an op"
        test_hashmap_get_incr_alloc;
      case "log-only hash-map get and incr allocate under 45 words an op"
        test_hashmap_log_only_alloc;
      slow_case "a cost-free populate allocates no more than a costed one"
        test_populate_alloc;
      case "intset: add/mem/clear" test_intset_basics;
      case "intset: growth keeps members and order" test_intset_growth_and_order;
      prop_intset_matches_hashtbl;
      case "intset: add and mem allocate nothing" test_intset_alloc;
      case "kind: a full scan_object call allocates nothing"
        test_scan_object_alloc;
      case "tied context switches allocate at most 8 words a step"
        test_switch_alloc_ties;
      case "dl: an untouched key allocates under one word"
        test_dl_untouched_alloc;
    ] )
