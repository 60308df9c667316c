(* Quanta must be a pure host-speed optimisation: with quanta granted,
   bursts of charges that cannot change the pick charge the thread
   clock without re-entering the scheduler, yet every simulated
   observable — cycles, step counts, interleavings, crash points,
   durable images, traces, mid-burst clock reads — stays bit-identical
   to the suspend-per-step reference ([~quantum:false]).  Quanta are
   always on above the scheduler, so the reference leg lives here, at
   the scheduler level; the workload-level witnesses are the pinned sim
   cycles in bench/baseline.json, first recorded before quanta
   existed. *)

open Helpers
module Tracer = Obs.Tracer
module Mutex = Scheduler.Mutex

(* Run [sched] with [pmem]'s charges routed through it and its quantum
   handle installed, as the runner wires them. *)
let run_wired ?crash_at_step pmem sched =
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Pmem.set_quantum pmem (Scheduler.quantum_handle sched);
  let outcome = Scheduler.run ?crash_at_step sched in
  Pmem.clear_quantum pmem;
  Pmem.clear_step_hook pmem;
  outcome

(* Wire [tr] the way [Workload.Machine] wires a tracer: events stamped
   with the running thread's virtual clock, each sampling the
   dirty-line count. *)
let wire_tracer pmem sched tr =
  Pmem.set_tracer pmem (Some tr);
  Scheduler.set_tracer sched (Some tr);
  Tracer.set_tid tr (fun () -> Scheduler.current_id sched);
  Tracer.set_clock tr (fun () ->
      if Scheduler.in_thread sched then Scheduler.now sched
      else (Pmem.stats pmem).Nvm.Stats.clock)

(* 1. Crash fidelity, directly: a crash injected at a fixed step must
   fire at that step and leave the same durable image whether or not
   the crashed burst was running inside a quantum (grant budgets are
   clamped to the crash boundary, so the handler path takes over for
   the final pre-crash step). *)
let test_crash_image_identical () =
  let crashed ~quantum =
    let pmem = desktop_pmem ~region_mib:1 () in
    let sched = Scheduler.create ~seed:11 ~quantum () in
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 0 to 9_999 do
             Pmem.store_int pmem ((i * 8) land 0xFFFF) i
           done)
        : int);
    (match run_wired ~crash_at_step:1234 pmem sched with
    | Scheduler.Crashed { at_step } ->
        Alcotest.(check int) "crash step" 1234 at_step
    | _ -> Alcotest.fail "expected a crash");
    crash pmem FM.Full_rescue;
    Pmem.durable_snapshot pmem
  in
  Alcotest.(check bool)
    "post-crash durable image identical" true
    (String.equal (crashed ~quantum:true) (crashed ~quantum:false))

(* The scheduler-level harness: a contended-then-uncontended two-thread
   workload.  Returns every simulated observable plus the
   [Scheduler.now] and [Scheduler.total_steps] reads after each store —
   mid-burst whenever a quantum is held.  A [tracer] is wired by
   [wire_tracer]. *)
let mini_observables ?tracer ~seed quantum =
  let pmem = desktop_pmem ~region_mib:1 () in
  let sched = Scheduler.create ~seed ~cost_jitter:3 ~quantum () in
  Option.iter (wire_tracer pmem sched) tracer;
  let m = Mutex.create sched in
  let nows = ref [] in
  let store addr v =
    Pmem.store_int pmem addr v;
    nows := (Scheduler.now sched, Scheduler.total_steps sched) :: !nows
  in
  let body tid () =
    for i = 0 to 199 do
      Mutex.lock m;
      let addr = (i * 64) land 0xFFFF in
      store addr ((tid * 100_000) + i);
      ignore (Pmem.load_int pmem addr : int);
      if i land 31 = 0 then begin
        Pmem.flush pmem addr;
        Pmem.fence pmem
      end;
      Mutex.unlock m
    done;
    (* Uncontended tail for thread 0: one quantum covers it. *)
    if tid = 0 then
      for i = 0 to 999 do
        store ((i * 8) land 0xFFFF) i
      done
  in
  ignore (Scheduler.spawn sched ~name:"t0" (body 0) : int);
  ignore (Scheduler.spawn sched ~name:"t1" (body 1) : int);
  (match run_wired pmem sched with
  | Scheduler.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  ( Pmem.stats pmem,
    Pmem.durable_snapshot pmem,
    Scheduler.elapsed_cycles sched,
    Scheduler.total_steps sched,
    List.rev !nows )

let reference = false
let with_quanta = true

(* 2. The tracer under quanta: emitted events (codes, tids, virtual
   timestamps, payloads, dirty samples) must match the reference byte
   for byte — including the ctx-switch dedup, which must not see
   phantom switches at quantum boundaries. *)
let test_tracer_identical () =
  let events mode =
    let tr = Tracer.create ~ring_cap:65536 () in
    ignore (mini_observables ~tracer:tr ~seed:5 mode);
    let evs = ref [] in
    Tracer.iter tr (fun e -> evs := e :: !evs);
    (Tracer.emitted tr, Tracer.dropped tr, List.rev !evs)
  in
  let em_on, dr_on, evs_on = events with_quanta in
  let em_off, dr_off, evs_off = events reference in
  Alcotest.(check int) "events emitted" em_off em_on;
  Alcotest.(check int) "events dropped" dr_off dr_on;
  Alcotest.(check bool) "event streams identical" true (evs_on = evs_off)

(* 3. A clock read mid-burst (what a history record's t0/t1 and every
   trace timestamp do) must observe the per-op cycle, not the cycle at
   which the quantum was granted; the step count read beside it must
   count every charge made so far. *)
let test_history_timestamps_identical () =
  let nows mode =
    let tr = Tracer.create ~ring_cap:65536 () in
    let _, _, _, _, nows = mini_observables ~tracer:tr ~seed:11 mode in
    nows
  in
  let on = nows with_quanta and off = nows reference in
  Alcotest.(check int) "clock reads" (List.length off) (List.length on);
  Alcotest.(check (list (pair int int)))
    "Scheduler.now and total_steps after every store" off on

(* 4. Randomised equivalence over seeds. *)
let qcheck_quantum_equiv =
  qcheck ~count:25 "random seeds: quanta match the per-op reference"
    QCheck2.Gen.(int_bound 9_999)
    (fun seed ->
      mini_observables ~seed with_quanta = mini_observables ~seed reference)

(* 5. Contended equivalence.  With several threads runnable, a thread
   holds a quantum while its clock stays below its horizon: the
   smallest clock among the other runnable threads, left unset when the
   pick's scan would draw before reaching it.  Random programs of 2-8
   threads, with costs that repeat and charges of zero so that clocks
   tie, no jitter or jitter 3, an optional mutex section (whose
   hand-off wakes a waiter mid-horizon) and an optional crash, must
   match the reference on every observable under quanta.  The programs
   mix loads, stores, CAS, flushes, fences, compute charges and yields,
   so every kind of device charge rides the quantum. *)
type dop =
  | D_load of int
  | D_store of int
  | D_cas of int
  | D_flush of int
  | D_fence
  | D_charge of int
  | D_yield
  | D_section of int  (* lock the shared mutex, store [n] words, unlock *)

let dop_gen ~mutex =
  QCheck2.Gen.(
    let addr = map (fun s -> s * 8) (int_bound 255) in
    let plain =
      [
        (5, map (fun a -> D_load a) addr);
        (5, map (fun a -> D_store a) addr);
        (2, map (fun a -> D_cas a) addr);
        (1, map (fun a -> D_flush a) addr);
        (1, return D_fence);
        (2, map (fun c -> D_charge c) (oneofl [ 0; 8; 8; 50 ]));
        (1, return D_yield);
      ]
    in
    frequency
      (if mutex then (2, map (fun n -> D_section n) (int_range 1 4)) :: plain
       else plain))

let contended_gen =
  QCheck2.Gen.(
    let* threads = int_range 2 8 in
    let* jitter = oneofl [ 0; 3 ] in
    let* mutex = bool in
    let* crash_at_step = opt (int_range 1 400) in
    let* seed = int_bound 9_999 in
    let+ progs =
      list_repeat threads (list_size (int_range 0 40) (dop_gen ~mutex))
    in
    (seed, jitter, crash_at_step, progs))

let print_contended (seed, jitter, crash_at_step, progs) =
  let op = function
    | D_load a -> Printf.sprintf "L%d" a
    | D_store a -> Printf.sprintf "S%d" a
    | D_cas a -> Printf.sprintf "C%d" a
    | D_flush a -> Printf.sprintf "F%d" a
    | D_fence -> "fence"
    | D_charge c -> Printf.sprintf "charge%d" c
    | D_yield -> "yield"
    | D_section n -> Printf.sprintf "section%d" n
  in
  Printf.sprintf "seed %d jitter %d crash %s\n%s" seed jitter
    (Option.fold ~none:"-" ~some:string_of_int crash_at_step)
    (String.concat "\n"
       (List.mapi
          (fun i p ->
            Printf.sprintf "t%d: %s" i (String.concat " " (List.map op p)))
          progs))

let contended_observables (seed, jitter, crash_at_step, progs) quantum =
  let pmem = desktop_pmem ~region_mib:1 () in
  let sched = Scheduler.create ~seed ~cost_jitter:jitter ~quantum () in
  let tr = Tracer.create ~ring_cap:65536 () in
  wire_tracer pmem sched tr;
  let m = Mutex.create sched in
  let nows = ref [] in
  let exec tid = function
    | D_load a -> ignore (Pmem.load_int pmem a : int)
    | D_store a -> Pmem.store_int pmem a tid
    | D_cas a ->
        ignore (Pmem.cas_int pmem a ~expected:tid ~desired:(tid + 1) : bool)
    | D_flush a -> Pmem.flush pmem a
    | D_fence -> Pmem.fence pmem
    | D_charge c -> Pmem.charge pmem c
    | D_yield -> Scheduler.yield sched
    | D_section n ->
        Mutex.lock m;
        for i = 0 to n - 1 do
          Pmem.store_int pmem (2048 + (i * 8)) tid
        done;
        Mutex.unlock m
  in
  List.iteri
    (fun tid prog ->
      ignore
        (Scheduler.spawn sched (fun () ->
             List.iter
               (fun op ->
                 exec tid op;
                 nows := (tid, Scheduler.now sched) :: !nows)
               prog)
          : int))
    progs;
  let outcome = run_wired ?crash_at_step pmem sched in
  crash pmem FM.Full_rescue;
  (* The rescue leaves every word of the programs' range (plain ops up
     to 2040, sections up to 2072) at its pre-crash value, including a
     store that landed after another thread cleaned its line. *)
  for w = 0 to 2072 / 8 do
    let a = w * 8 in
    if not (Int64.equal (Pmem.peek pmem a) (Pmem.load_durable pmem a)) then
      QCheck2.Test.fail_reportf "word %d lost its last store" a
  done;
  let evs = ref [] in
  Tracer.iter tr (fun e -> evs := e :: !evs);
  ( outcome,
    Scheduler.elapsed_cycles sched,
    Scheduler.total_steps sched,
    List.init (List.length progs) (Scheduler.thread_cycles sched),
    Nvm.Stats.cycle_totals (Pmem.stats pmem),
    Pmem.durable_snapshot pmem,
    List.rev !nows,
    (Tracer.emitted tr, List.rev !evs) )

let qcheck_contended_equiv =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~print:print_contended
       ~name:"contended threads under horizons match the per-op reference"
       contended_gen (fun case ->
         contended_observables case with_quanta
         = contended_observables case reference))

(* 6. A thread that finishes while it holds a quantum, on the contended
   harness with no jitter.  Threads 1-3 first charge 1000 cycles each;
   thread 0 then runs alone below the horizon 1000 and returns holding
   its quantum.  The pick among the three tied threads keeps the third
   for about a third of the seeds and grants it nothing: its charges
   must go through [step], not ride the finished thread's quantum onto
   thread 0's clock. *)
let test_finish_holding_quantum () =
  let progs =
    List.init 4 (fun tid ->
        if tid = 0 then List.init 4 (fun i -> D_store (i * 8))
        else [ D_charge 1000; D_store (tid * 64); D_store ((tid * 64) + 8) ])
  in
  for seed = 0 to 63 do
    let case = (seed, 0, None, progs) in
    if contended_observables case with_quanta
       <> contended_observables case reference
    then Alcotest.failf "%s" (print_contended case)
  done

(* 7. The allocation-free Sim_rng that feeds per-op jitter draws inside
   quanta: its stream, stored as two native-int halves and drawn on
   unboxed int64 locals, must match the boxed int64 splitmix64 reference
   draw by draw, across every public operation and both [int] bound
   regimes (a power of two masks, any other bound takes one 64-bit
   remainder).  The bounds include the jitter bound 4 and the tie
   bounds up to 8 that the hot path draws, and each side of 2^29 and
   2^32. *)
module Rng_ref = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L
  let create ~seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state golden_gamma;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t n =
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

  let bool t = Int64.logand (next t) 1L = 1L

  let float t x =
    let u = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    x *. (u /. 9007199254740992.0)
end

let rng_bounds =
  [ 1; 2; 3; 4; 5; 6; 7; 8; 100; 12_289; 1 lsl 20; 1 lsl 29; (1 lsl 29) + 1;
    0x3FFFFFFF; 0x40000000; 0x40000001; 1 lsl 32; (1 lsl 32) + 1; 1 lsl 40;
    max_int ]

let qcheck_rng_reference =
  qcheck ~count:500 "Sim_rng matches the boxed int64 reference"
    QCheck2.Gen.int
    (fun seed ->
      let r = Rng.create ~seed and f = Rng_ref.create ~seed in
      let ok = ref true in
      for _ = 1 to 8 do
        ok := !ok && Int64.equal (Rng.next r) (Rng_ref.next f);
        List.iter (fun n -> ok := !ok && Rng.int r n = Rng_ref.int f n)
          rng_bounds;
        ok := !ok && Bool.equal (Rng.bool r) (Rng_ref.bool f);
        ok := !ok && Float.equal (Rng.float r 3.5) (Rng_ref.float f 3.5)
      done;
      (* split derives the child from the next raw draw; copy preserves
         the stream position. *)
      let rc = Rng.split r and fc = { Rng_ref.state = Rng_ref.next f } in
      ok := !ok && Int64.equal (Rng.next rc) (Rng_ref.next fc);
      let rd = Rng.copy r in
      ok := !ok && Int64.equal (Rng.next rd) (Rng.next r);
      !ok)

(* 8. The run loop's one scan (the pick and its horizon) against the
   two scans it replaced, [Reference_pick]: random tables of 1-8 threads
   in every state, with clocks from a small range so that ties at the
   minimum and prefix ties above it ([5; 5; 3]: the scan draws at index
   1, then picks index 2) are common.  Same pick, same horizon (for a
   pick) and the same position of the draw stream afterwards. *)
let state_gen =
  QCheck2.Gen.oneofl
    Scheduler.[ Fresh; Suspended; Suspended; Running; Blocked; Done ]

let table_gen =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* seed = int_bound 9_999 in
    let+ table = array_repeat n (pair state_gen (int_range 0 4)) in
    (seed, table))

let print_table (seed, table) =
  let state = function
    | Scheduler.Fresh -> "fresh"
    | Suspended -> "suspended"
    | Running -> "running"
    | Blocked -> "blocked"
    | Done -> "done"
  in
  Printf.sprintf "seed %d: %s" seed
    (String.concat "; "
       (Array.to_list
          (Array.map (fun (s, c) -> Printf.sprintf "%s@%d" (state s) c) table)))

let scan_matches_reference (seed, table) =
  let r = Rng.create ~seed and f = Rng.create ~seed in
  let pick, horizon = Scheduler.scan_table r table in
  let ref_pick, ref_horizon = Reference_pick.scan_table f table in
  pick = ref_pick
  && (pick < 0 || horizon = ref_horizon)
  && Int64.equal (Rng.next r) (Rng.next f)

let test_scan_prefix_ties () =
  let runnable clocks =
    Array.of_list (List.map (fun c -> (Scheduler.Suspended, c)) clocks)
  in
  List.iter
    (fun clocks ->
      for seed = 0 to 31 do
        if not (scan_matches_reference (seed, runnable clocks)) then
          Alcotest.failf "%s" (print_table (seed, runnable clocks))
      done)
    [ [ 5; 5; 3 ]; [ 3; 5; 5 ]; [ 5; 3; 5 ]; [ 3; 3 ]; [ 3; 3; 3 ];
      [ 4; 6; 6; 2; 2 ]; [ 7 ] ]

let qcheck_scan_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~print:print_table
       ~name:"one-scan pick and horizon match the two-scan reference"
       table_gen scan_matches_reference)

(* 9. The run loop's ordered pick (the runnable set, which scans only on
   a tie above the minimum) against [Reference_pick] over the same
   table, pick after pick.  [picks_match tb r table f] makes one pick
   from [tb], whose draws come from [r], and one reference pick over
   [table] drawing from [f]: the same pick, the same horizon (for a
   pick) and the same next output of both streams. *)
let picks_match tb r table f =
  let pick, horizon = Scheduler.table_pick tb in
  let ref_pick, ref_horizon = Reference_pick.scan_table f table in
  let same =
    pick = ref_pick
    && (pick < 0 || horizon = ref_horizon)
    && Int64.equal (Rng.next r) (Rng.next f)
  in
  (pick, same)

(* A set over [table] (clocks of [Suspended] entries, states of the
   rest), drawing from [r]: every thread starts [Fresh] and is picked
   out of the set, then takes its entry.  The reference stream is [r]'s
   copy from there on. *)
let table_of r table =
  let tb = Scheduler.table r (Array.length table) in
  Array.iter (fun _ -> ignore (Scheduler.table_pick tb : int * int)) table;
  Array.iteri (fun id (state, clock) -> Scheduler.table_set tb id state clock)
    table;
  (tb, Rng.copy r)

let check_first_pick name table =
  for seed = 0 to 31 do
    let r = Rng.create ~seed in
    let tb, f = table_of r table in
    if not (snd (picks_match tb r table f)) then
      Alcotest.failf "%s: %s" name (print_table (seed, table))
  done

let suspended clocks =
  Array.of_list (List.map (fun c -> (Scheduler.Suspended, c)) clocks)

(* A tie only in the minimum group, of every size the Table 1 cells
   reach: the group's members draw in id order, whether they lead the
   table, trail it or sit between threads above the minimum. *)
let test_set_min_group () =
  for m = 2 to 8 do
    let above i = 10 + i in
    let trailing = Array.init 8 (fun i -> if i >= 8 - m then 3 else above i)
    and leading = Array.init 8 (fun i -> if i < m then 3 else above i)
    and spread = Array.init 8 above in
    for k = 0 to m - 1 do
      spread.(k * 8 / m) <- 3
    done;
    List.iter
      (fun clocks ->
        check_first_pick (Printf.sprintf "min group of %d" m)
          (suspended (Array.to_list clocks)))
      [ trailing; leading; spread ]
  done

(* A tie above the minimum, which the scan may draw for: the set scans. *)
let test_set_tie_above () =
  List.iter
    (fun clocks -> check_first_pick "tie above the minimum" (suspended clocks))
    [ [ 5; 5; 3 ]; [ 4; 6; 6; 2 ]; [ 6; 6; 1; 1 ]; [ 3; 5; 5 ];
      [ 9; 9; 9; 8; 8; 2; 7; 7 ] ]

(* One runnable thread among blocked and finished ones runs alone, to
   the horizon [max_int]; with none runnable there is no pick. *)
let test_set_alone_and_empty () =
  let alone =
    Scheduler.[| (Blocked, 0); (Suspended, 7); (Done, 2); (Blocked, 9) |]
  in
  check_first_pick "one runnable" alone;
  let r = Rng.create ~seed:1 in
  let tb, _ = table_of r alone in
  Alcotest.(check (pair int int)) "alone: horizon max_int" (1, max_int)
    (Scheduler.table_pick tb);
  check_first_pick "none runnable" Scheduler.[| (Blocked, 0); (Done, 4) |];
  Alcotest.(check int) "no threads: no pick" (-1)
    (fst (Scheduler.table_pick (Scheduler.table (Rng.create ~seed:1) 0)))

(* Random event sequences over 1-8 threads, all starting [Fresh] at 0.
   After each pick the picked thread may first wake the longest waiter
   at its own clock, as a mutex hand-off does, then suspends at a clock
   0-3 above the one it was picked at (a small range, so that ties at
   and above the minimum are both common), blocks, or finishes.  The
   run ends when no thread is runnable or the events run out. *)
let event_gen =
  QCheck2.Gen.(
    triple bool (oneofl [ `Suspend; `Suspend; `Suspend; `Block; `Finish ])
      (int_range 0 3))

let events_gen =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* seed = int_bound 9_999 in
    let+ events = list_size (int_range 0 120) event_gen in
    (seed, n, events))

let print_events (seed, n, events) =
  Printf.sprintf "seed %d, %d threads: %s" seed n
    (String.concat "; "
       (List.map
          (fun (wake, kind, d) ->
            Printf.sprintf "%s%s+%d"
              (if wake then "wake, " else "")
              (match kind with
              | `Suspend -> "suspend"
              | `Block -> "block"
              | `Finish -> "finish")
              d)
          events))

let set_matches_reference (seed, n, events) =
  let r = Rng.create ~seed and f = Rng.create ~seed in
  let tb = Scheduler.table r n in
  let table = Array.make n (Scheduler.Fresh, 0) in
  let waiters = Queue.create () in
  let rec go events =
    match picks_match tb r table f with
    | _, false -> false
    | p, true when p < 0 -> true
    | p, true -> (
        let clock = snd table.(p) in
        table.(p) <- (Scheduler.Running, clock);
        match events with
        | [] -> true
        | (wake, kind, d) :: events ->
            let set id state clock =
              table.(id) <- (state, clock);
              Scheduler.table_set tb id state clock
            in
            let clock = clock + d in
            if wake && not (Queue.is_empty waiters) then begin
              let w = Queue.take waiters in
              table.(w) <- (Scheduler.Suspended, Int.max (snd table.(w)) clock);
              Scheduler.table_wake tb w clock
            end;
            (match kind with
            | `Suspend -> set p Scheduler.Suspended clock
            | `Block ->
                set p Scheduler.Blocked clock;
                Queue.add p waiters
            | `Finish -> set p Scheduler.Done clock);
            go events)
  in
  go events

let qcheck_set_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~print:print_events
       ~name:"ordered pick matches the reference through random events"
       events_gen set_matches_reference)

let suite =
  ( "quantum",
    [
      case "crash image identical across quantum on/off"
        test_crash_image_identical;
      case "tracer byte-identical under quanta" test_tracer_identical;
      case "history timestamps settle per op inside quanta"
        test_history_timestamps_identical;
      qcheck_quantum_equiv;
      qcheck_contended_equiv;
      case "a thread finishes holding a quantum" test_finish_holding_quantum;
      qcheck_rng_reference;
      case "one scan: prefix ties above the minimum"
        test_scan_prefix_ties;
      qcheck_scan_reference;
      case "ordered pick: a tie only in the minimum group"
        test_set_min_group;
      case "ordered pick: a tie above the minimum scans" test_set_tie_above;
      case "ordered pick: one runnable thread, and none"
        test_set_alone_and_empty;
      qcheck_set_reference;
    ] )
