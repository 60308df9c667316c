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
  mutable q_thread : thread;  (* the thread the quantum was granted *)
  mutable q_limit : int;
      (* the granted horizon less the largest jitter, [unset] while no
         quantum is held: a charge whose cost takes [q_thread]'s clock
         to it could reach the horizon, so it is refused *)
  mutable horizon : int;  (* the last [pick]'s horizon *)
  mutable set_ids : int array;
      (* the runnable set: the ids of the [Fresh] and [Suspended]
         threads, ordered by (clock, id) from the largest down, so the
         minimum is at [set_size - 1]; allocated by [run] *)
  mutable set_clocks : int array;  (* [set_clocks.(j)]: [set_ids.(j)]'s clock *)
  mutable set_size : int;
  mutable set_equal : int;  (* adjacent set entries with equal clocks *)
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

(* The horizon of a pick that a draw precedes, and the quantum limit
   while no quantum is held: every charge then goes through the pick. *)
let unset = min_int

(* [q_thread] before the first grant.  Never charged: [q_limit] is
   [unset] until a grant replaces it. *)
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
  {
    threads = [||];
    pending_rev = [];
    n_threads = 0;
    rng = Sim_rng.create ~seed;
    cost_jitter;
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
    q_thread = no_thread;
    q_limit = unset;
    horizon = unset;
    set_ids = [||];
    set_clocks = [||];
    set_size = 0;
    set_equal = 0;
  }

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
   operation with two calls.  Every charge writes the thread's clock
   when it is made, so this read is exact in the middle of a burst. *)
let now t = (current_thread t).vclock

(* ------------------------------------------------------------------ *)
(* Charges                                                             *)

type quantum = t

(* Revoke the quantum: one store.  The run loop revokes whenever control
   comes back from the fiber it resumed; a mutex hand-off and a device
   crash revoke too. *)
let[@inline] revoke t = t.q_limit <- unset

let quantum_settle = revoke
let quantum_handle t = t

(* The jitter of one charge, drawn once per step from the one stream. *)
let[@inline] jitter t =
  if t.cost_jitter > 0 then Sim_rng.int t.rng (t.cost_jitter + 1) else 0

(* Charge one step against a held quantum: the same clock update, the
   same jitter draw from the same stream and the same step count as a
   [step], minus the suspension.  The charge is refused, before the
   draw, when its cost could take the clock to the horizon ([q_limit]
   holds the largest jitter back, and is [unset] while no quantum is
   held) or when its step would reach the crash step, so a refused
   charge has drawn nothing and [step] makes its one draw. *)
let[@inline] quantum_try_charge t ~cost =
  let th = t.q_thread in
  let clock = th.vclock + cost in
  if clock >= t.q_limit || t.steps + 1 >= t.crash_at then false
  else begin
    th.vclock <- clock + jitter t;
    t.steps <- t.steps + 1;
    true
  end

(* A quantum handle that never grants: what a [Pmem] charges against
   before a scheduler is wired in.  A scheduler that never runs, so its
   quantum stays [unset] forever. *)
let null_quantum = create ()

(* The road every charge a quantum refuses takes: the same charge onto
   the calling thread's clock and the same step count, then the effect
   handler, whose run loop picks the next thread. *)
let step t ~cost =
  let th = current_thread t in
  th.vclock <- th.vclock + cost + jitter t;
  t.steps <- t.steps + 1;
  Effect.perform Step_eff

let yield t = step t ~cost:0

let elapsed_cycles t =
  freeze t;
  Array.fold_left (fun acc th -> Int.max acc th.vclock) 0 t.threads

let total_steps t = t.steps

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
    Effect.Deep.retc = (fun () -> th.state <- Done);
    exnc =
      (fun e ->
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
                th.k <- Some k;
                th.state <- Blocked;
                Queue.add th m.waiters)
        | _ -> None);
  }

(* The pick reads the runnable set but makes the draws, the pick and the
   horizon of a scan of the thread table in id order
   ([test/reference_pick.ml]), which breaks clock ties by reservoir
   sampling: at each runnable thread that ties the smallest clock among
   the runnable threads before it, it draws [Sim_rng.int rng k], [k]
   counting the threads of that clock met so far, and keeps the thread
   if the draw is 0.  A draw advances the stream by one output whatever
   its bound, and the count restarts at the first member in id order of
   the minimum group (the runnable threads of the smallest clock), so
   the scan comes down to one rule:
   - one draw at each prefix tie, a runnable thread below the group's
     first id whose clock ties the smallest runnable clock before it
     ([prefix_ties]), which the set rules out when its only equal
     clocks are the group's;
   - then the group's own draws ([draw_group]), which alone choose the
     pick.
   The horizon is the smallest clock among the other runnable threads
   when no draw precedes the pick in id order, else [unset]: the next
   pick would make that draw again, so no quantum may skip it.  That
   leaves it set exactly when there was no prefix tie and the kept
   member is the group's first or second. *)

(* Walk the threads below id [g] in id order with [lo] the smallest
   runnable clock so far, drawing once at each prefix tie; how many
   drew.  A runnable clock of [max_int], which no run reaches, would
   count as a tie. *)
let rec prefix_ties t i g lo ties =
  if i = g then ties
  else
    let th = Array.unsafe_get t.threads i in
    match th.state with
    | Fresh | Suspended ->
        let c = th.vclock in
        if c = lo then begin
          ignore (Sim_rng.int t.rng 1 : int);
          prefix_ties t (i + 1) g lo (ties + 1)
        end
        else prefix_ties t (i + 1) g (if c < lo then c else lo) ties
    | Running | Blocked | Done -> prefix_ties t (i + 1) g lo ties

(* The member kept from a minimum group of [m] threads, by its rank in
   id order: the [k]-th member (k = 2..m) draws [Sim_rng.int rng k], and
   the last member whose draw was 0 is kept (the first when none
   was). *)
let rec draw_group rng k m kept =
  if k > m then kept
  else draw_group rng (k + 1) m (if Sim_rng.int rng k = 0 then k else kept)

(* The pick, which leaves the set.  With no two clocks equal the rule
   makes no draw and keeps the minimum; that case, most picks, exits
   early.  Otherwise the group's [k]-th member in id order is at
   [n - k], [set_equal] exceeds the group's [m - 1] equal pairs exactly
   when a tie lies above the minimum, and the clock next to the minimum
   is the group's when it has other members, else the next one. *)
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
      let ties =
        if t.set_equal > m - 1 then prefix_ties t 0 t.set_ids.(last) max_int 0
        else 0
      in
      let kept = draw_group t.rng 2 m 1 in
      t.horizon <- (if ties > 0 || kept > 2 then unset else clocks.(last - 1));
      let p = n - kept in
      let i = t.set_ids.(p) in
      remove_at t p;
      i

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
   draw for it. *)
let grant t th horizon =
  if horizon <> unset then begin
    t.q_thread <- th;
    t.q_limit <- horizon - t.cost_jitter
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
            (* The fiber yielded, blocked, finished or crashed: its
               quantum ends before any other thread charges. *)
            revoke t;
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
          revoke t;
          m.owner <- Some th.id;
          wake t th me.vclock
        end
    | Some _ | None ->
        Fmt.invalid_arg "Scheduler.Mutex.unlock: %s does not hold mutex %d"
          me.name m.mid

  let owner m = m.owner
end
