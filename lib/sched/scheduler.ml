type runnable =
  | Fresh of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation

type thread_state = Runnable of runnable | Running | Blocked | Done

type thread = {
  id : int;
  name : string;
  mutable vclock : int;
  mutable state : thread_state;
}

type t = {
  mutable threads : thread array;
  mutable pending_rev : thread list;
      (* threads spawned but not yet frozen into [threads]; newest
         first.  Buffering here makes N spawns O(N) total instead of the
         O(N^2) of repeated [Array.append]. *)
  mutable n_threads : int;
  rng : Sim_rng.t;
  cost_jitter : int;
  deterministic_slice : int;
  mutable fast_budget : int;
      (* remaining steps the current thread may charge inline before the
         next forced suspension; refilled to [deterministic_slice] each
         time the scheduler resumes a thread *)
  mutable runnable_count : int;
      (* threads in state [Runnable] or [Running]; the step fast path is
         legal exactly when this is 1 (the caller itself) *)
  mutable steps : int;
  mutable crash_at_step : int option;
  mutable crashed : bool;
  mutable current : int;  (* -1 when no thread is executing *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable started : bool;
  mutable next_mutex_id : int;
  mutable tracer : Obs.Tracer.t option;
  mutable last_resumed : int;
      (* thread id the run loop last handed the CPU to; context-switch
         events fire only when it changes, not on every loop pass *)
  quantum_on : bool;
  quantum : quantum;
}

(* A batched-execution quantum: permission for the device layer to
   charge up to [q_budget] uncontended steps straight onto the granted
   thread's clock without calling {!step} at all.  The scheduler grants
   one only when a charge through {!step} could not have suspended,
   drawn differently, or crashed — exactly one runnable thread, inline
   budget left, and the crash window clamped out of reach — so a
   quantum-charged burst is observationally identical to the same ops
   charged one [step] at a time (DESIGN.md, "Quantum accounting").

   [q_used] steps are accrued per-op onto [q_thread.vclock] (so clock
   reads mid-quantum are always settled) but folded into [t.steps] /
   [t.fast_budget] only at the next settle point: a {!step} entry, a
   mutex block or hand-off, thread exit, or an explicit barrier. *)
and quantum = {
  q_sched : t;
  q_rng : Sim_rng.t;  (* alias of [q_sched.rng]: same draw stream *)
  q_jitter : int;
  mutable q_thread : thread;
  mutable q_budget : int;  (* remaining grant; 0 = no quantum held *)
  mutable q_used : int;  (* charged but not yet folded into [t.steps] *)
}

type outcome =
  | Completed
  | Crashed of { at_step : int }
  | Deadlocked of { blocked : string list }

type mutex = {
  mid : int;
  sched : t;
  mutable owner : int option;
  waiters : (thread * (unit, unit) Effect.Deep.continuation) Queue.t;
}

type _ Effect.t +=
  | Step_eff : int -> unit Effect.t
  | Block_eff : mutex -> unit Effect.t

let default_slice = 4096

(* Placeholder for [q_thread] while no quantum is held.  Never charged:
   [q_budget] is 0 whenever it is installed. *)
let no_thread = { id = -1; name = "<no-quantum>"; vclock = 0; state = Done }

let create ?(seed = 42) ?(cost_jitter = 0) ?(deterministic_slice = default_slice)
    ?(quantum = true) () =
  if deterministic_slice < 0 then
    invalid_arg "Scheduler.create: deterministic_slice must be >= 0";
  let rng = Sim_rng.create ~seed in
  let rec t =
    {
      threads = [||];
      pending_rev = [];
      n_threads = 0;
      rng;
      cost_jitter;
      deterministic_slice;
      fast_budget = 0;
      runnable_count = 0;
      steps = 0;
      crash_at_step = None;
      crashed = false;
      current = -1;
      failure = None;
      started = false;
      next_mutex_id = 0;
      tracer = None;
      last_resumed = -1;
      quantum_on = quantum;
      quantum = q;
    }
  and q =
    {
      q_sched = t;
      q_rng = rng;
      q_jitter = cost_jitter;
      q_thread = no_thread;
      q_budget = 0;
      q_used = 0;
    }
  in
  t

let freeze t =
  if t.pending_rev <> [] then begin
    t.threads <-
      Array.append t.threads (Array.of_list (List.rev t.pending_rev));
    t.pending_rev <- []
  end

let thread_count t = t.n_threads

let spawn t ?name f =
  if t.started then invalid_arg "Scheduler.spawn: scheduler already ran";
  let id = t.n_threads in
  let name = Option.value name ~default:(Printf.sprintf "thread-%d" id) in
  let th = { id; name; vclock = 0; state = Runnable (Fresh f) } in
  t.pending_rev <- th :: t.pending_rev;
  t.n_threads <- t.n_threads + 1;
  t.runnable_count <- t.runnable_count + 1;
  id

let current_thread t =
  if t.current < 0 then
    invalid_arg "Scheduler: not inside a simulated thread";
  t.threads.(t.current)

let self t = (current_thread t).id

(* Non-raising views of the execution context, for tracer closures that
   must work both inside simulated threads and in out-of-thread harness
   code (setup, crash handling, recovery). *)
let in_thread t = t.current >= 0
let current_id t = t.current
let set_tracer t tr = t.tracer <- tr

(* Hook point for history recorders: the current thread's virtual clock,
   readable from inside the thread without freezing or scanning the
   thread table.  One field load — cheap enough to bracket every map
   operation with two calls.  Quantum charges write the thread's vclock
   per-op, so this read is settled even in the middle of a burst. *)
let now t = (current_thread t).vclock

(* ------------------------------------------------------------------ *)
(* Quantum grant / settle                                              *)

(* Revoke the quantum and fold its accrued steps into the scheduler
   counters.  Called at every point where scheduling state could change
   or be observed: [step] entry, thread exit (retc/exnc), mutex block
   and hand-off, and explicit device barriers.  Idempotent and cheap
   when no quantum is outstanding (two field tests). *)
let[@inline] settle_quantum q =
  q.q_budget <- 0;
  if q.q_used > 0 then begin
    let t = q.q_sched in
    t.steps <- t.steps + q.q_used;
    t.fast_budget <- t.fast_budget - q.q_used;
    q.q_used <- 0
  end

let quantum_settle q = settle_quantum q
let quantum_handle t = t.quantum

(* Charge one uncontended step against a held quantum: same clock
   update and the same jitter draw from the same stream as the [step]
   fast path, minus every per-op scheduler check (those were hoisted
   into the grant).  Returns false when no quantum is held, sending the
   caller down the ordinary [step] road. *)
let[@inline] quantum_try_charge q ~cost =
  let b = q.q_budget in
  if b <= 0 then false
  else begin
    let jitter =
      if q.q_jitter > 0 then Sim_rng.int q.q_rng (q.q_jitter + 1) else 0
    in
    q.q_thread.vclock <- q.q_thread.vclock + cost + jitter;
    q.q_budget <- b - 1;
    q.q_used <- q.q_used + 1;
    true
  end

(* Grant a quantum to the executing thread if a burst of inline charges
   is provably equivalent to charging through [step]: it must be the
   only runnable thread (no interleaving, no tie-break draws), within
   the deterministic slice (same forced-suspension cadence), and the
   budget is clamped so the step that would open the crash window — and
   every step after it — still goes through the effect handler. *)
let[@inline] maybe_grant t =
  if t.quantum_on && t.runnable_count = 1 && t.current >= 0 then begin
    let budget =
      match t.crash_at_step with
      | None -> t.fast_budget
      | Some c ->
          let d = c - t.steps - 1 in
          if d < t.fast_budget then d else t.fast_budget
    in
    if budget > 0 then begin
      let q = t.quantum in
      q.q_thread <- t.threads.(t.current);
      q.q_budget <- budget
    end
  end

(* A quantum handle that never grants: what a [Pmem] charges against
   before a scheduler is wired in.  Owned by a throwaway scheduler that
   never runs, so its budget stays 0 forever. *)
let null_quantum = (create ()).quantum

(* The hot path of the whole simulator: one call per simulated memory
   access.  When the calling thread is the only runnable one — every
   single-thread cell, and the tail of every multi-thread run — going
   through [Effect.perform] buys nothing: the handler would charge the
   cost and the scheduler loop would immediately re-pick the same thread
   (with no RNG draw, since there is no tie to break).  So in that case
   the accounting is done inline, with exactly the state updates and RNG
   draws the handler would have made, and the fiber never suspends.

   The fast path is skipped when the next step could trigger the crash
   window, so crash injection always goes through the handler, which
   abandons the continuation — observable crash states are unchanged. *)
let step t ~cost =
  settle_quantum t.quantum;
  let th = current_thread t in
  let crash_imminent =
    match t.crash_at_step with Some c -> t.steps + 1 >= c | None -> false
  in
  if t.runnable_count = 1 && t.fast_budget > 0 && not crash_imminent then begin
    let jitter =
      if t.cost_jitter > 0 then Sim_rng.int t.rng (t.cost_jitter + 1) else 0
    in
    th.vclock <- th.vclock + cost + jitter;
    t.steps <- t.steps + 1;
    t.fast_budget <- t.fast_budget - 1
  end
  else Effect.perform (Step_eff cost);
  (* Reaching here means the charge completed without a crash — offer
     the device layer a fresh burst (this also re-grants right after a
     resumption, since [perform] returns into this frame). *)
  maybe_grant t

let yield t = step t ~cost:0

let elapsed_cycles t =
  freeze t;
  Array.fold_left (fun acc th -> max acc th.vclock) 0 t.threads

let total_steps t = t.steps + t.quantum.q_used

let thread_cycles t id =
  freeze t;
  t.threads.(id).vclock

let is_crashed t = t.crashed

(* One deep handler is installed per fiber at its first resumption; every
   later [continue] re-enters it, so the closed-over [th] is always the
   fiber's own record. *)
let handler t th =
  {
    Effect.Deep.retc =
      (fun () ->
        settle_quantum t.quantum;
        th.state <- Done;
        t.runnable_count <- t.runnable_count - 1);
    exnc =
      (fun e ->
        settle_quantum t.quantum;
        th.state <- Done;
        t.runnable_count <- t.runnable_count - 1;
        if t.failure = None then
          t.failure <- Some (e, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Step_eff cost ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let jitter =
                  if t.cost_jitter > 0 then Sim_rng.int t.rng (t.cost_jitter + 1)
                  else 0
                in
                th.vclock <- th.vclock + cost + jitter;
                t.steps <- t.steps + 1;
                match t.crash_at_step with
                | Some c when t.steps >= c ->
                    (* Abandon the continuation: the operation that would
                       have followed this step never executes, and neither
                       does anything else in any thread. *)
                    t.crashed <- true
                | _ -> th.state <- Runnable (Suspended k))
        | Block_eff m ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                (* Performed straight from [Mutex.lock], not via [step]:
                   an outstanding quantum must be settled here. *)
                settle_quantum t.quantum;
                th.state <- Blocked;
                t.runnable_count <- t.runnable_count - 1;
                Queue.add (th, k) m.waiters)
        | _ -> None);
  }

let pick t =
  let best = ref None in
  let ties = ref 0 in
  Array.iter
    (fun th ->
      match th.state with
      | Runnable _ -> begin
          match !best with
          | None ->
              best := Some th;
              ties := 1
          | Some b ->
              if th.vclock < b.vclock then begin
                best := Some th;
                ties := 1
              end
              else if th.vclock = b.vclock then begin
                (* Reservoir-sample among clock ties so that equal-time
                   threads interleave differently across seeds. *)
                incr ties;
                if Sim_rng.int t.rng !ties = 0 then best := Some th
              end
        end
      | Running | Blocked | Done -> ())
    t.threads;
  !best

let run ?crash_at_step t =
  if t.started then invalid_arg "Scheduler.run: scheduler already ran";
  t.started <- true;
  freeze t;
  t.crash_at_step <- crash_at_step;
  let rec loop () =
    if t.crashed then Crashed { at_step = t.steps }
    else
      match t.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> begin
          match pick t with
          | None ->
              let blocked =
                Array.to_list t.threads
                |> List.filter (fun th -> th.state = Blocked)
                |> List.map (fun th -> th.name)
              in
              if blocked = [] then Completed else Deadlocked { blocked }
          | Some th ->
              t.current <- th.id;
              t.fast_budget <- t.deterministic_slice;
              (match t.tracer with
              | Some tr when th.id <> t.last_resumed ->
                  t.last_resumed <- th.id;
                  Obs.Tracer.emit tr ~code:Obs.Event.ctx_switch ~a:th.id
                    ~b:th.vclock
              | Some _ | None -> ());
              (match th.state with
              | Runnable r -> begin
                  th.state <- Running;
                  match r with
                  | Fresh f -> Effect.Deep.match_with f () (handler t th)
                  | Suspended k -> Effect.Deep.continue k ()
                end
              | (Running | Blocked | Done) as st ->
                  (* [pick] only ever returns [Runnable] threads; seeing
                     anything else means the thread table was mutated
                     behind the run loop's back (e.g. two schedulers
                     wired to one device). *)
                  Fmt.invalid_arg
                    "Scheduler.run: picked thread %d (%s) is %s, not \
                     runnable, at step %d (vclock %d)"
                    th.id th.name
                    (match st with
                    | Running -> "already running"
                    | Blocked -> "blocked"
                    | Done -> "done"
                    | Runnable _ -> "runnable")
                    t.steps th.vclock);
              t.current <- -1;
              loop ()
        end
  in
  loop ()

module Mutex = struct
  type nonrec mutex = mutex

  let create t =
    let mid = t.next_mutex_id in
    t.next_mutex_id <- mid + 1;
    { mid; sched = t; owner = None; waiters = Queue.create () }

  let id m = m.mid

  let lock m =
    let me = current_thread m.sched in
    match m.owner with
    | Some o when o = me.id ->
        Fmt.invalid_arg "Scheduler.Mutex.lock: %s already holds mutex %d"
          me.name m.mid
    | None -> m.owner <- Some me.id
    | Some _ ->
        (* Suspend; [unlock] hands ownership over before resuming us, so
           on return the mutex is ours. *)
        Effect.perform (Block_eff m)

  let unlock m =
    let me = current_thread m.sched in
    match m.owner with
    | Some o when o = me.id -> begin
        match Queue.take_opt m.waiters with
        | Some (th, k) ->
            (* The wake makes a second thread runnable: any quantum the
               releaser still holds is no longer uncontended — revoke it
               so its next charge goes back through the effect path. *)
            settle_quantum m.sched.quantum;
            m.owner <- Some th.id;
            (* The waiter could not have proceeded before the release, so
               its clock jumps forward to the release instant. *)
            th.vclock <- max th.vclock me.vclock;
            th.state <- Runnable (Suspended k);
            m.sched.runnable_count <- m.sched.runnable_count + 1
        | None -> m.owner <- None
      end
    | Some _ | None ->
        Fmt.invalid_arg "Scheduler.Mutex.unlock: %s does not hold mutex %d"
          me.name m.mid

  let owner m = m.owner
end
