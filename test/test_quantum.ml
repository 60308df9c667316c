(* Batched-quantum execution must be a pure host-speed optimisation:
   with quanta granted, bursts of loads/stores that cannot change the
   pick charge the thread clock without re-entering the scheduler, yet
   every simulated observable — cycles, step counts, interleavings,
   crash points, durable images, traces, mid-burst clock reads — stays
   bit-identical to the suspend-per-step reference ([~quantum:false
   ~deterministic_slice:0]).  Quanta are always on above the scheduler,
   so the reference leg lives here, at the scheduler level; the
   workload-level witnesses are the pinned sim cycles in
   bench/baseline.json, first recorded before quanta existed. *)

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
   workload at an arbitrary slice (which also bounds the quantum size).
   Returns every simulated observable plus the [Scheduler.now] read
   after each store — mid-burst whenever a quantum is held.  A [tracer]
   is wired by [wire_tracer].  The mode is the scheduler's [(quantum,
   deterministic_slice)] pair. *)
let mini_observables ?tracer ~seed (quantum, slice) =
  let pmem = desktop_pmem ~region_mib:1 () in
  let sched =
    Scheduler.create ~seed ~cost_jitter:3 ~deterministic_slice:slice ~quantum ()
  in
  Option.iter (wire_tracer pmem sched) tracer;
  let m = Mutex.create sched in
  let nows = ref [] in
  let store addr v =
    Pmem.store_int pmem addr v;
    nows := Scheduler.now sched :: !nows
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
    (* Uncontended tail for thread 0: quanta last the whole slice. *)
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

let reference = (false, 0)
let with_quanta = (true, Scheduler.default_slice)

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
   trace timestamp do) must observe the settled per-op cycle, not the
   cycle at which the quantum was granted. *)
let test_history_timestamps_identical () =
  let nows mode =
    let tr = Tracer.create ~ring_cap:65536 () in
    let _, _, _, _, nows = mini_observables ~tracer:tr ~seed:11 mode in
    nows
  in
  let on = nows with_quanta and off = nows reference in
  Alcotest.(check int) "clock reads" (List.length off) (List.length on);
  Alcotest.(check (list int)) "Scheduler.now after every store" off on

(* 4. Randomised equivalence at arbitrary slice/quantum settings. *)
let qcheck_quantum_equiv =
  qcheck ~count:25 "random slice/quantum matches the slow path"
    QCheck2.Gen.(triple (int_bound 9_999) (int_bound 64) bool)
    (fun (seed, slice, quantum) ->
      mini_observables ~seed (quantum, slice)
      = mini_observables ~seed reference)

(* 5. Contended equivalence.  With several threads runnable, a thread
   keeps charging inline, and holds quanta, while its clock stays below
   its horizon: the smallest clock among the other runnable threads,
   left unset when the pick's scan would draw before reaching it.
   Random programs of 2-8 threads, with costs that repeat and charges
   of zero so that clocks tie, no jitter or jitter 3, an optional mutex
   section (whose hand-off wakes a waiter mid-horizon) and an optional
   crash, must match the reference on every observable, both with
   quanta and with [step]'s horizon path alone ([~quantum:false] at the
   default slice). *)
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

let contended_observables (seed, jitter, crash_at_step, progs)
    (quantum, slice) =
  let pmem = desktop_pmem ~region_mib:1 () in
  let sched =
    Scheduler.create ~seed ~cost_jitter:jitter ~deterministic_slice:slice
      ~quantum ()
  in
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
         let expected = contended_observables case reference in
         contended_observables case with_quanta = expected
         && contended_observables case (false, Scheduler.default_slice)
            = expected))

(* 6. The allocation-free Sim_rng rewrite that feeds per-op jitter draws
   inside quanta: its two-limb native-int stream must match the boxed
   int64 splitmix64 reference draw by draw, across every public
   operation and both [int] bound regimes (limb-wise modulo below
   2^30, the int64 fallback above). *)
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
  [ 1; 2; 3; 7; 100; 12_289; 1 lsl 20; 0x3FFFFFFF; 0x40000000; 0x40000001;
    1 lsl 40; max_int ]

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
      qcheck_rng_reference;
    ] )
