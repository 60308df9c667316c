(* Shared scaffolding for the test suites. *)

module Pmem = Nvm.Pmem
module Config = Nvm.Config
module Heap = Pheap.Heap
module Scheduler = Sched.Scheduler
module Rng = Sched.Sim_rng
module FM = Nvm.Fault_model

let small_pmem ?(journal = false) () = Pmem.create ~journal Config.test_small

(* A crash under one of the paper's two endpoints, [FM.Full_rescue] or
   [FM.Full_discard]: neither draws from the RNG. *)
let crash pmem fault =
  ignore (Pmem.crash pmem ~fault ~rng:(fun _ -> 0) () : Pmem.crash_damage)

let desktop_pmem ?(journal = false) ?(region_mib = 8) () =
  Pmem.create ~journal
    (Config.with_region_size Config.desktop (region_mib * 1024 * 1024))

let small_heap ?journal () =
  let pmem = small_pmem ?journal () in
  (pmem, Heap.create pmem ~base:0 ~size:(Config.test_small.Config.region_size))

let desktop_heap ?journal ?region_mib () =
  let pmem = desktop_pmem ?journal ?region_mib () in
  let size = (Pmem.config pmem).Config.region_size in
  (pmem, Heap.create pmem ~base:0 ~size)

(* Run [threads] bodies under a scheduler with the pmem step hook wired,
   as the real runner does.  Returns the scheduler outcome. *)
let run_threads ?seed ?crash_at_step pmem bodies =
  let sched = Scheduler.create ?seed () in
  List.iteri
    (fun i body ->
      ignore (Scheduler.spawn sched ~name:(Printf.sprintf "t%d" i) body : int))
    bodies;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Fun.protect
    ~finally:(fun () -> Pmem.clear_step_hook pmem)
    (fun () -> Scheduler.run ?crash_at_step sched)

(* Same, but also hands each body the scheduler (for mutexes). *)
let run_threads_s ?seed ?crash_at_step pmem bodies =
  let sched = Scheduler.create ?seed () in
  List.iteri
    (fun i body ->
      ignore
        (Scheduler.spawn sched
           ~name:(Printf.sprintf "t%d" i)
           (fun () -> body sched)
          : int))
    bodies;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Fun.protect
    ~finally:(fun () -> Pmem.clear_step_hook pmem)
    (fun () -> Scheduler.run ?crash_at_step sched)

(* Whether [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_raises_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let check_raises_corrupt name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Heap.Corrupt" name
  | exception Heap.Corrupt _ -> ()

let int64 = Alcotest.int64

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)
