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

(* One step of a random trace.  Addresses are word-aligned slots into a
   region spanning 32 lines over a 4-set * 2-way cache, so evictions,
   set conflicts and re-touches all happen constantly. *)
type op =
  | Touch of int * bool
  | Flush of int
  | Write_back_all
  | Drop_all

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

let code_of_ref = function
  | Reference_cache.Hit -> Cache.hit
  | Reference_cache.Miss { evicted_dirty = false } -> Cache.miss_clean
  | Reference_cache.Miss { evicted_dirty = true } -> Cache.miss_dirty

let prop_soa_matches_reference =
  qcheck ~count:300 "SoA cache == record-based reference on random traces"
    QCheck2.Gen.(list_size (int_range 1 400) op_gen)
    (fun ops ->
      let wb_soa = ref [] and wb_ref = ref [] in
      let soa =
        Cache.create ~sets:4 ~ways:2 ~line_size:64 ~write_back:(fun a ->
            wb_soa := a :: !wb_soa)
      in
      let reference =
        Reference_cache.create ~sets:4 ~ways:2 ~line_size:64
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

(* --- allocation regression --- *)

(* The device's int-typed operations must perform zero minor-heap
   allocation once warm.  [Gc.minor_words ()] itself boxes a float, so
   the assertion is per-op with a generous constant slack: 10_000 ops
   must allocate fewer than 100 words in total (any boxing bug costs
   >= 2 words per op = 20_000). *)
let test_zero_alloc_loop () =
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
  ignore (body () : int) (* warm up: fault in any lazy setup *);
  let before = Gc.minor_words () in
  let acc = body () in
  let after = Gc.minor_words () in
  let words = after -. before in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d ops: %.0f (acc %d)" ops words acc)
    true
    (words < 100.)

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

let suite =
  ( "hotpath",
    [
      prop_soa_matches_reference;
      case "device int ops allocate nothing" test_zero_alloc_loop;
      case "context switches allocate at most 8 words a step"
        test_switch_alloc;
      case "intset: add/mem/clear" test_intset_basics;
      case "intset: growth keeps members and order" test_intset_growth_and_order;
      prop_intset_matches_hashtbl;
    ] )
