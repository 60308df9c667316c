(* The two-scan pick, retained verbatim as an executable reference.  The
   production run loop ([Sched.Scheduler]) now reads the pick and its
   horizon off an ordered runnable set, making the draws of the scan in
   closed form; this module keeps the original pair of scans,
   [pick_from] and then [horizon_from], over a minimal copy of the
   thread table, so property tests can run both on the same tables and
   demand the same pick, the same horizon and the same draws.  Do not
   "improve" this file: its value is that it is the old code. *)

module Sim_rng = Sched.Sim_rng

type thread_state = Sched.Scheduler.thread_state =
  | Fresh
  | Suspended
  | Running
  | Blocked
  | Done

type thread = { vclock : int; state : thread_state }
type t = { threads : thread array; rng : Sim_rng.t }

let unset = min_int

(* The runnable thread with the smallest clock, as an index into
   [t.threads] (-1 if none), scanning from [i] with [best] the pick so
   far, [best_clock] its clock and [ties] how many scanned threads share
   that clock.  Clock ties are reservoir-sampled, one draw per tie, so
   that equal-time threads interleave differently across seeds. *)
let rec pick_from t i best best_clock ties =
  if i = Array.length t.threads then best
  else
    let th = t.threads.(i) in
    match th.state with
    | Fresh | Suspended ->
        if best < 0 || th.vclock < best_clock then
          pick_from t (i + 1) i th.vclock 1
        else if th.vclock = best_clock then
          let ties = ties + 1 in
          let best = if Sim_rng.int t.rng ties = 0 then i else best in
          pick_from t (i + 1) best best_clock ties
        else pick_from t (i + 1) best best_clock ties
    | Running | Blocked | Done -> pick_from t (i + 1) best best_clock ties

(* The horizon of thread [me], scanning from [i] with [lo] the smallest
   runnable clock seen so far other than [me]'s.  It is the smallest
   clock among the other runnable threads: while [me]'s clock stays
   below it, [me] is the pick's unique minimum.  That alone does not
   keep the pick from drawing: its scan draws whenever a thread ties
   the smallest clock scanned before it.  Past [me] no thread can, as
   [me]'s clock is smaller than theirs, but a tie among the threads
   ahead of [me] draws on every pick; such a prefix tie leaves the
   horizon [unset].  The other threads' clocks and states hold still
   while [me] runs, except when a mutex hand-off wakes one, and that
   revokes the quantum granted from the horizon. *)
let rec horizon_from t me i lo =
  if i = Array.length t.threads then lo
  else
    let th = t.threads.(i) in
    match th.state with
    | (Fresh | Suspended) when i <> me ->
        if i < me && th.vclock = lo then unset
        else
          horizon_from t me (i + 1) (if th.vclock < lo then th.vclock else lo)
    | Fresh | Suspended | Running | Blocked | Done ->
        horizon_from t me (i + 1) lo

(* The run loop's use of the pair: the pick, then (for a pick) its
   horizon. *)
let scan_table rng table =
  let t =
    { threads = Array.map (fun (state, vclock) -> { vclock; state }) table; rng }
  in
  let i = pick_from t 0 (-1) 0 0 in
  (i, if i < 0 then unset else horizon_from t i 0 max_int)
