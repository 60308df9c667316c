open Int_compare

(* A thread is runnable when [Fresh] (its [body] has not started) or
   [Suspended] (its fiber waits in [k]).  The constant states keep a
   context switch from allocating a state block. *)
type thread_state = Fresh | Suspended | Running | Blocked | Done

type thread = {
  id : int;
  name : string;
  mutable vclock : int;
  mutable state : thread_state;
  body : unit -> unit;
  mutable k : (unit, unit) Effect.Deep.continuation option;
      (* the suspended fiber while [Suspended] or [Blocked] *)
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
  mutable charge : int;
      (* the cost plus jitter [step] drew for the charge it hands to
         the effect handler *)
  mutable steps : int;
  mutable crash_at : int;  (* [max_int] when no crash is scheduled *)
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
  mutable horizon : int;  (* the last [pick]'s horizon *)
  mutable set_ids : int array;
      (* the runnable set: the ids of the [Fresh] and [Suspended]
         threads, ordered by (clock, id) from the largest down, so the
         minimum is at [set_size - 1]; allocated by [run] *)
  mutable set_clocks : int array;  (* [set_clocks.(j)]: [set_ids.(j)]'s clock *)
  mutable set_size : int;
  mutable set_equal : int;  (* adjacent set entries with equal clocks *)
}

(* A quantum: permission for the device layer to charge up to
   [q_budget] steps straight onto the granted thread's clock without
   calling {!step} at all.  The run loop grants one when it resumes a
   thread whose horizon is set, so charges through {!step} could not
   have suspended the thread, drawn differently, or crashed — the
   thread would still be the pick and the crash window is clamped out
   of reach — and a quantum-charged burst is observationally identical
   to the same ops charged one [step] at a time (DESIGN.md, "The
   scheduler's one fast path").

   [q_used] steps are accrued per-op onto [q_thread.vclock] (so clock
   reads mid-quantum are always settled) but folded into [t.steps] only
   at the next settle point: a {!step} entry, a mutex block or
   hand-off, thread exit, or a device crash. *)
and quantum = {
  q_sched : t;
  q_rng : Sim_rng.t;  (* alias of [q_sched.rng]: same draw stream *)
  q_jitter : int;
  mutable q_thread : thread;
  mutable q_budget : int;  (* remaining grant; 0 = no quantum held *)
  mutable q_used : int;  (* charged but not yet folded into [t.steps] *)
  mutable q_limit : int;
      (* the horizon less the maximum jitter: a charge whose cost takes
         the clock to this could reach the horizon, so it is refused *)
}

type outcome =
  | Completed
  | Crashed of { at_step : int }
  | Deadlocked of { blocked : string list }

type mutex = {
  mid : int;
  sched : t;
  mutable owner : int option;
  waiters : thread Queue.t;
}

type _ Effect.t += Step_eff : unit Effect.t | Block_eff : mutex -> unit Effect.t

(* The horizon of a thread the pick's scan would draw for: no quantum
   is granted, so every charge goes through the pick. *)
let unset = min_int

(* Placeholder for [q_thread] while no quantum is held.  Never charged:
   [q_budget] is 0 whenever it is installed. *)
let no_thread =
  {
    id = -1;
    name = "<no-quantum>";
    vclock = 0;
    state = Done;
    body = ignore;
    k = None;
  }

let create ?(seed = 42) ?(cost_jitter = 0) ?(quantum = true) () =
  let rng = Sim_rng.create ~seed in
  let rec t =
    {
      threads = [||];
      pending_rev = [];
      n_threads = 0;
      rng;
      cost_jitter;
      charge = 0;
      steps = 0;
      crash_at = max_int;
      crashed = false;
      current = -1;
      failure = None;
      started = false;
      next_mutex_id = 0;
      tracer = None;
      last_resumed = -1;
      quantum_on = quantum;
      quantum = q;
      horizon = unset;
      set_ids = [||];
      set_clocks = [||];
      set_size = 0;
      set_equal = 0;
    }
  and q =
    {
      q_sched = t;
      q_rng = rng;
      q_jitter = cost_jitter;
      q_thread = no_thread;
      q_budget = 0;
      q_used = 0;
      q_limit = unset;
    }
  in
  t

let freeze t =
  match t.pending_rev with
  | [] -> ()
  | pending ->
      t.threads <- Array.append t.threads (Array.of_list (List.rev pending));
      t.pending_rev <- []

let thread_count t = t.n_threads

let spawn t ?name f =
  if t.started then invalid_arg "Scheduler.spawn: scheduler already ran";
  let id = t.n_threads in
  let name = Option.value name ~default:(Printf.sprintf "thread-%d" id) in
  let th = { id; name; vclock = 0; state = Fresh; body = f; k = None } in
  t.pending_rev <- th :: t.pending_rev;
  t.n_threads <- t.n_threads + 1;
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
   and hand-off, and a device crash.  Idempotent and cheap when no
   quantum is outstanding (two field tests). *)
let[@inline] settle_quantum q =
  q.q_budget <- 0;
  if q.q_used > 0 then begin
    let t = q.q_sched in
    t.steps <- t.steps + q.q_used;
    q.q_used <- 0
  end

let quantum_settle q = settle_quantum q
let quantum_handle t = t.quantum

(* Charge one step against a held quantum: the same clock update and
   the same jitter draw from the same stream as a [step], minus every
   per-op scheduler check (those were hoisted into the grant).  The
   horizon test comes before the draw, against the largest jitter the
   draw could return, so a refused charge has drawn nothing and [step]
   makes its one draw.  Returns false when no quantum is held or the
   charge is refused, sending the caller down the ordinary [step]
   road. *)
let[@inline] quantum_try_charge q ~cost =
  let b = q.q_budget in
  if b <= 0 then false
  else begin
    let th = q.q_thread in
    let clock = th.vclock + cost in
    if clock >= q.q_limit then false
    else begin
      let jitter =
        if q.q_jitter > 0 then Sim_rng.int q.q_rng (q.q_jitter + 1) else 0
      in
      th.vclock <- clock + jitter;
      q.q_budget <- b - 1;
      q.q_used <- q.q_used + 1;
      true
    end
  end

(* A quantum handle that never grants: what a [Pmem] charges against
   before a scheduler is wired in.  Owned by a throwaway scheduler that
   never runs, so its budget stays 0 forever. *)
let null_quantum = (create ()).quantum

(* The road every charge a quantum refuses takes: draw the step's
   jitter and hand the charge to the effect handler, whose run loop
   picks the next thread.  The jitter is drawn here, once per step,
   from the stream the quantum draws from. *)
let step t ~cost =
  settle_quantum t.quantum;
  ignore (current_thread t : thread);
  t.charge <-
    (if t.cost_jitter > 0 then cost + Sim_rng.int t.rng (t.cost_jitter + 1)
     else cost);
  Effect.perform Step_eff

let yield t = step t ~cost:0

let elapsed_cycles t =
  freeze t;
  Array.fold_left (fun acc th -> Int.max acc th.vclock) 0 t.threads

let total_steps t = t.steps + t.quantum.q_used

let thread_cycles t id =
  freeze t;
  t.threads.(id).vclock

let is_crashed t = t.crashed

(* ------------------------------------------------------------------ *)
(* The runnable set                                                    *)

(* Enter [th], just made runnable, into the set.  The walk starts at
   the minimum end: a thread that has just run, or a waiter woken at
   the releaser's clock, mostly lands a place or two from the minimum.
   [set_equal] counts one more pair when [th]'s clock equals either
   neighbour's: if both do, the pair they formed becomes two. *)
let enter t th =
  let ids = t.set_ids and clocks = t.set_clocks in
  let c = th.vclock and id = th.id in
  let n = t.set_size in
  let j = ref n in
  while
    !j > 0
    &&
    let cl = Array.unsafe_get clocks (!j - 1) in
    cl < c || (cl = c && Array.unsafe_get ids (!j - 1) < id)
  do
    Array.unsafe_set clocks !j (Array.unsafe_get clocks (!j - 1));
    Array.unsafe_set ids !j (Array.unsafe_get ids (!j - 1));
    decr j
  done;
  let p = !j in
  if (p > 0 && clocks.(p - 1) = c) || (p < n && clocks.(p) = c) then
    t.set_equal <- t.set_equal + 1;
  clocks.(p) <- c;
  ids.(p) <- id;
  t.set_size <- n + 1

(* Remove the entry at position [p]: the inverse of [enter]. *)
let remove_at t p =
  let ids = t.set_ids and clocks = t.set_clocks in
  let last = t.set_size - 1 in
  let c = clocks.(p) in
  if (p > 0 && clocks.(p - 1) = c) || (p < last && clocks.(p + 1) = c) then
    t.set_equal <- t.set_equal - 1;
  for j = p to last - 1 do
    Array.unsafe_set clocks j (Array.unsafe_get clocks (j + 1));
    Array.unsafe_set ids j (Array.unsafe_get ids (j + 1))
  done;
  t.set_size <- last

(* A mutex hand-off's wake: the waiter [th] could not have proceeded
   before the release, so its clock jumps forward to the releaser's
   [clock], and it re-enters the set. *)
let wake t th clock =
  th.vclock <- Int.max th.vclock clock;
  th.state <- Suspended;
  enter t th

(* Allocate the set and enter every thread, all [Fresh] at clock 0, in
   descending id order so that each lands at the minimum end. *)
let start_set t =
  let n = Array.length t.threads in
  t.set_ids <- Array.make n 0;
  t.set_clocks <- Array.make n 0;
  for id = n - 1 downto 0 do
    enter t t.threads.(id)
  done

(* One deep handler is installed per fiber at its first resumption; every
   later [continue] re-enters it, so the closed-over [th] is always the
   fiber's own record.  The [Step_eff] branch is built here, once per
   fiber, so a suspension allocates no handler closure. *)
let handler t th =
  let on_step =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.vclock <- th.vclock + t.charge;
        t.steps <- t.steps + 1;
        if t.steps >= t.crash_at then
          (* Abandon the continuation: the operation that would have
             followed this step never executes, and neither does
             anything else in any thread. *)
          t.crashed <- true
        else begin
          th.k <- Some k;
          th.state <- Suspended;
          enter t th
        end)
  in
  {
    Effect.Deep.retc =
      (fun () ->
        settle_quantum t.quantum;
        th.state <- Done);
    exnc =
      (fun e ->
        settle_quantum t.quantum;
        th.state <- Done;
        if Option.is_none t.failure then
          t.failure <- Some (e, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Step_eff -> on_step
        | Block_eff m ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                (* Performed straight from [Mutex.lock], not via [step]:
                   an outstanding quantum must be settled here. *)
                settle_quantum t.quantum;
                th.k <- Some k;
                th.state <- Blocked;
                Queue.add th m.waiters)
        | _ -> None);
  }

(* The scan of the thread table that defines the pick: the runnable
   thread with the smallest clock, as an index into [t.threads] (-1 if
   none), with that thread's horizon left in [t.horizon].  The run loop
   reads most picks off the runnable set instead ([pick] below) and
   scans only when the set cannot prove what the scan would draw.

   The pick: [best] is the pick so far, [best_clock] its clock and
   [ties] how many scanned threads share that clock.  Clock ties are
   reservoir-sampled, one draw per tie, so that equal-time threads
   interleave differently across seeds.

   The horizon: the smallest clock among the other runnable threads.
   While the pick's clock stays below it, the pick is the scan's unique
   minimum.  That alone does not keep the scan from drawing: it draws
   whenever a thread ties the smallest clock scanned before it.  Past
   the pick no thread can, as the pick's clock is smaller than theirs,
   but a tie among the threads ahead of it draws on every scan; a draw
   at an index below the pick ([first_draw], the index of the scan's
   first draw, [max_int] when none) leaves the horizon [unset].  [rest]
   is the smallest clock among the scanned runnable threads other than
   [best]: a tie puts a thread of [best_clock] outside [best] whichever
   the draw keeps, and a new minimum puts the old [best] there.  The
   other threads' clocks and states hold still while the pick runs,
   except when a mutex hand-off wakes one, and that revokes the quantum
   granted from the horizon.

   Two scans used to compute the pick and then the horizon.  They
   differ from this one only for a runnable clock equal to [max_int],
   which the horizon scan took for a tie; no run reaches that clock. *)
let rec scan t i best best_clock ties first_draw rest =
  let threads = t.threads in
  if i = Array.length threads then begin
    t.horizon <- (if first_draw < best then unset else rest);
    best
  end
  else
    let th = Array.unsafe_get threads i in
    match th.state with
    | Fresh | Suspended ->
        let c = th.vclock in
        if best < 0 then scan t (i + 1) i c 1 first_draw rest
        else if c < best_clock then
          scan t (i + 1) i c 1 first_draw best_clock
        else if c = best_clock then
          let ties = ties + 1 in
          let best = if Sim_rng.int t.rng ties = 0 then i else best in
          let first_draw = if first_draw < i then first_draw else i in
          scan t (i + 1) best best_clock ties first_draw best_clock
        else
          scan t (i + 1) best best_clock ties first_draw
            (if c < rest then c else rest)
    | Running | Blocked | Done ->
        scan t (i + 1) best best_clock ties first_draw rest

let scan_all t = scan t 0 (-1) 0 0 max_int max_int

(* The member the scan keeps from a minimum group of [m] threads, by
   its rank in id order: the scan meets the group's members in id
   order and draws [Sim_rng.int rng k] at the [k]-th (k = 2..m),
   keeping the last member whose draw was 0 (the first when none
   was). *)
let rec draw_group rng k m kept =
  if k > m then kept
  else draw_group rng (k + 1) m (if Sim_rng.int rng k = 0 then k else kept)

(* The pick, read off the runnable set whenever it can prove what the
   scan would do, with the scan's draws, pick and horizon; the pick
   leaves the set.  The scan draws exactly when a thread ties the
   smallest clock among the runnable threads before it in id order.
   - No two clocks equal: the scan draws nothing; the pick is the
     minimum and the horizon the next clock ([max_int] alone).
   - Every equal pair in the minimum group of [m] threads: no thread
     above the minimum ties the prefix minimum it meets, so the scan
     draws only at the group's members, and its first draw is at the
     group's second member in id order.  The horizon is the minimum
     clock when the kept member is the first or second, else unset.
   - A tie above the minimum: the scan may draw there, so it runs. *)
let pick t =
  let n = t.set_size in
  if n = 0 then -1
  else
    let clocks = t.set_clocks in
    let last = n - 1 in
    if t.set_equal = 0 then begin
      t.set_size <- last;
      t.horizon <- (if last = 0 then max_int else clocks.(last - 1));
      t.set_ids.(last)
    end
    else
      let c = clocks.(last) in
      let j = ref last in
      while !j > 0 && clocks.(!j - 1) = c do
        decr j
      done;
      let m = n - !j in
      if t.set_equal = m - 1 then begin
        (* The group's [k]-th member in id order is at [n - k]. *)
        let kept = draw_group t.rng 2 m 1 in
        let p = n - kept in
        let i = t.set_ids.(p) in
        remove_at t p;
        t.horizon <- (if kept <= 2 then c else unset);
        i
      end
      else begin
        let i = scan_all t in
        let ids = t.set_ids in
        let p = ref last in
        while ids.(!p) <> i do
          decr p
        done;
        remove_at t !p;
        i
      end

let scan_table rng table =
  let threads =
    Array.mapi
      (fun id (state, vclock) ->
        { id; name = ""; vclock; state; body = ignore; k = None })
      table
  in
  let t = { (create ()) with rng; threads } in
  let i = scan_all t in
  (i, t.horizon)

type table = t

let table rng n =
  let threads =
    Array.init n (fun id ->
        { id; name = ""; vclock = 0; state = Fresh; body = ignore; k = None })
  in
  let t = { (create ()) with rng; threads } in
  start_set t;
  t

let table_pick t =
  let i = pick t in
  if i >= 0 then t.threads.(i).state <- Running;
  (i, t.horizon)

let table_set t id state clock =
  let th = t.threads.(id) in
  th.state <- state;
  th.vclock <- clock;
  match state with
  | Fresh | Suspended -> enter t th
  | Running | Blocked | Done -> ()

let table_wake t id clock = wake t t.threads.(id) clock

(* Grant [th], the thread the run loop is about to resume, a quantum
   when [horizon] is set: below it, charges cannot change the pick or
   draw for it.  The budget stops one short of the crash step, so the
   step that reaches it goes through the effect handler. *)
let grant t th horizon =
  if horizon <> unset then begin
    let budget = t.crash_at - t.steps - 1 in
    if budget > 0 then begin
      let q = t.quantum in
      q.q_thread <- th;
      q.q_budget <- budget;
      q.q_limit <- horizon - t.cost_jitter
    end
  end

let run ?crash_at_step t =
  if t.started then invalid_arg "Scheduler.run: scheduler already ran";
  t.started <- true;
  freeze t;
  start_set t;
  t.crash_at <- Option.value crash_at_step ~default:max_int;
  let rec loop () =
    if t.crashed then Crashed { at_step = t.steps }
    else
      match t.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          let i = pick t in
          if i < 0 then begin
            let blocked =
              Array.fold_right
                (fun th names ->
                  match th.state with
                  | Blocked -> th.name :: names
                  | Fresh | Suspended | Running | Done -> names)
                t.threads []
            in
            match blocked with
            | [] -> Completed
            | _ :: _ -> Deadlocked { blocked }
          end
          else begin
            let th = t.threads.(i) in
            t.current <- i;
            if t.quantum_on then grant t th t.horizon;
            (match t.tracer with
            | Some tr when i <> t.last_resumed ->
                t.last_resumed <- i;
                Obs.Tracer.emit tr ~code:Obs.Event.ctx_switch ~a:i ~b:th.vclock
            | Some _ | None -> ());
            (match (th.state, th.k) with
            | Fresh, _ ->
                th.state <- Running;
                Effect.Deep.match_with th.body () (handler t th)
            | Suspended, Some k ->
                th.state <- Running;
                Effect.Deep.continue k ()
            | (Suspended | Running | Blocked | Done), _ ->
                (* [pick] only ever returns runnable threads, and a
                   suspended thread holds its fiber; anything else means
                   the thread table was mutated behind the run loop's
                   back (e.g. two schedulers wired to one device). *)
                Fmt.invalid_arg
                  "Scheduler.run: picked thread %d (%s) is not runnable, at \
                   step %d (vclock %d)"
                  i th.name t.steps th.vclock);
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
    | Some o when o = me.id ->
        if Queue.is_empty m.waiters then m.owner <- None
        else begin
          let th = Queue.take m.waiters in
          let t = m.sched in
          (* The wake makes another thread runnable, at a clock the
             releaser's horizon never saw: revoke the quantum, so the
             releaser's next charge goes back through the pick. *)
          settle_quantum t.quantum;
          m.owner <- Some th.id;
          wake t th me.vclock
        end
    | Some _ | None ->
        Fmt.invalid_arg "Scheduler.Mutex.unlock: %s does not hold mutex %d"
          me.name m.mid

  let owner m = m.owner
end
