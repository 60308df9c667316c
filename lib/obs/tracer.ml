(* Four ints per slot: packed header (code/tid/dirty), timestamp, two
   argument words.  [head] counts every event ever emitted, so the slot
   index is [head mod cap] and wrap-around needs no extra state.

   Everything reported by the summary accessors is accumulated at emit
   time from the values being written, never recovered from the ring:
   wrap-around loses raw events but no accounting.  The exposure
   envelope integrates dirty-lines over a monotone max-so-far clock
   (cross-thread virtual clocks are not globally ordered; the envelope
   only advances when a sample's timestamp exceeds every prior one,
   which keeps the time integral well-defined and deterministic). *)

type t = {
  ring : int array;
  cap : int;
  mutable head : int;  (* total events emitted *)
  mutable clock : unit -> int;
  mutable tid : unit -> int;
  mutable dirty : unit -> int;
  counts : int array;  (* per event code *)
  cycle_sums : int array;  (* per event code, sum of [b] *)
  (* exposure accounting *)
  budget_lines : int;
  mutable peak_dirty : int;
  mutable dirty_sum : int;
  mutable samples : int;
  mutable last_dirty : int;
  mutable env_clock : int;  (* max timestamp seen so far *)
  mutable env_started : bool;
  mutable env_t0 : int;
  mutable env_dirty : int;  (* dirty level at env_clock *)
  mutable time_above : int;
  dirty_hist : Hist.t;  (* per-sample dirty-lines distribution *)
  (* recovery phases *)
  phase_cycles : int array;
  phase_t0 : int array;  (* -1 when the phase is not open *)
}

let default_clock () = 0
let default_tid () = -1
let default_dirty () = 0

let create ?(ring_cap = 65536) ?(budget_lines = -1) () =
  let cap = max 8 ring_cap in
  {
    ring = Array.make (cap * 4) 0;
    cap;
    head = 0;
    clock = default_clock;
    tid = default_tid;
    dirty = default_dirty;
    counts = Array.make Event.n_codes 0;
    cycle_sums = Array.make Event.n_codes 0;
    budget_lines;
    peak_dirty = 0;
    dirty_sum = 0;
    samples = 0;
    last_dirty = 0;
    env_clock = 0;
    env_started = false;
    env_t0 = 0;
    env_dirty = 0;
    time_above = 0;
    dirty_hist = Hist.create ();
    phase_cycles = Array.make Event.n_phases 0;
    phase_t0 = Array.make Event.n_phases (-1);
  }

let set_clock t f = t.clock <- f
let set_tid t f = t.tid <- f
let set_dirty t f = t.dirty <- f

let emit t ~code ~a ~b =
  let ts = t.clock () in
  let tid = t.tid () in
  let dirty = t.dirty () in
  let base = t.head mod t.cap * 4 in
  t.ring.(base) <- Event.pack ~code ~tid ~dirty;
  t.ring.(base + 1) <- ts;
  t.ring.(base + 2) <- a;
  t.ring.(base + 3) <- b;
  t.head <- t.head + 1;
  t.counts.(code) <- t.counts.(code) + 1;
  t.cycle_sums.(code) <- t.cycle_sums.(code) + b;
  (* Exposure: integrate the previous dirty level over the envelope
     advance, then take the new sample. *)
  if dirty > t.peak_dirty then t.peak_dirty <- dirty;
  Hist.add t.dirty_hist dirty;
  t.dirty_sum <- t.dirty_sum + dirty;
  t.samples <- t.samples + 1;
  t.last_dirty <- dirty;
  if not t.env_started then begin
    t.env_started <- true;
    t.env_t0 <- ts;
    t.env_clock <- ts;
    t.env_dirty <- dirty
  end
  else if ts > t.env_clock then begin
    if t.budget_lines >= 0 && t.env_dirty > t.budget_lines then
      t.time_above <- t.time_above + (ts - t.env_clock);
    t.env_clock <- ts;
    t.env_dirty <- dirty
  end
  else if ts = t.env_clock then t.env_dirty <- dirty

let phase_begin t ~phase =
  t.phase_t0.(phase) <- t.clock ();
  emit t ~code:Event.phase_begin ~a:phase ~b:0

let phase_end t ~phase =
  let t0 = t.phase_t0.(phase) in
  if t0 >= 0 then begin
    let cycles = t.clock () - t0 in
    t.phase_t0.(phase) <- -1;
    t.phase_cycles.(phase) <- t.phase_cycles.(phase) + cycles;
    emit t ~code:Event.phase_end ~a:phase ~b:cycles
  end

let in_phase t ~phase f =
  match t with
  | None -> f ()
  | Some tr ->
      phase_begin tr ~phase;
      Fun.protect ~finally:(fun () -> phase_end tr ~phase) f

let emitted t = t.head
let length t = min t.head t.cap
let dropped t = max 0 (t.head - t.cap)

type event = {
  code : int;
  tid : int;
  dirty : int;
  ts : int;
  a : int;
  b : int;
}

let nth t i =
  let live = length t in
  if i < 0 || i >= live then invalid_arg "Tracer.nth";
  let base = (t.head - live + i) mod t.cap * 4 in
  let w = t.ring.(base) in
  {
    code = Event.code_of w;
    tid = Event.tid_of w;
    dirty = Event.dirty_of w;
    ts = t.ring.(base + 1);
    a = t.ring.(base + 2);
    b = t.ring.(base + 3);
  }

let iter t f =
  for i = 0 to length t - 1 do
    f (nth t i)
  done

let count t code = t.counts.(code)
let cycles_of t code = t.cycle_sums.(code)
let phase_cycles t phase = t.phase_cycles.(phase)

type exposure = {
  samples : int;
  peak_dirty : int;
  mean_dirty : float;
  last_dirty : int;
  budget_lines : int;
  duration : int;
  time_above_budget : int;
  dirty_hist : Hist.t;
}

let dirty_hist (t : t) = t.dirty_hist

let exposure (t : t) =
  {
    samples = t.samples;
    peak_dirty = t.peak_dirty;
    mean_dirty =
      (if t.samples = 0 then 0. else float t.dirty_sum /. float t.samples);
    last_dirty = t.last_dirty;
    budget_lines = t.budget_lines;
    duration = (if t.env_started then t.env_clock - t.env_t0 else 0);
    time_above_budget = t.time_above;
    dirty_hist = t.dirty_hist;
  }

let pp_exposure ppf e =
  Fmt.pf ppf "@[<v>persistence exposure (%d samples over %d cycles):@ "
    e.samples e.duration;
  Fmt.pf ppf "  peak dirty lines    %8d@ " e.peak_dirty;
  Fmt.pf ppf "  mean dirty lines    %10.1f@ " e.mean_dirty;
  if not (Hist.is_empty e.dirty_hist) then
    Fmt.pf ppf "  dirty p50/p99/p999  %8d / %d / %d  %s@ "
      (Hist.quantile e.dirty_hist 0.5)
      (Hist.quantile e.dirty_hist 0.99)
      (Hist.quantile e.dirty_hist 0.999)
      (Hist.sparkline e.dirty_hist);
  Fmt.pf ppf "  at end of trace     %8d@ " e.last_dirty;
  if e.budget_lines < 0 then
    Fmt.pf ppf "  WSP rescue budget   unlimited (no budget configured)@]"
  else begin
    Fmt.pf ppf "  WSP rescue budget   %8d lines@ " e.budget_lines;
    let headroom =
      if e.peak_dirty = 0 then Float.infinity
      else float e.budget_lines /. float e.peak_dirty
    in
    Fmt.pf ppf "  budget headroom     %10.1fx at peak@ " headroom;
    Fmt.pf ppf "  time above budget   %8d cycles (%.1f%% of trace)@]"
      e.time_above_budget
      (if e.duration = 0 then 0.
       else 100. *. float e.time_above_budget /. float e.duration)
  end
