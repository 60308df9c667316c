open Sched.Int_compare
module Scheduler = Sched.Scheduler

type t = {
  cfg : Config.t;
  mem : Memory.t;
  cache : Cache.t;
  stats : Stats.t;
  mutable hook : (cost:int -> unit) option;
  mutable quantum : Scheduler.quantum;
      (* the wired scheduler's quantum handle, which every charge tries
         first; [null_quantum] (never grants) until a scheduler is
         wired in, so the hot path needs no option match *)
  mutable state : int;
      (* [live], [crashed] or [cost_free_state]: the one field every op
         tests before it charges *)
  journal : (int * int64) Queue.t option;
  tracer : Obs.Tracer.t option ref;
      (* a ref cell rather than a mutable field because the [write_back]
         closure is built before the record exists and must see later
         [set_tracer] calls *)
}

exception Crashed_device

(* The device states [costed] tells apart. *)
let live = 0
let crashed = 1
let cost_free_state = 2

let create ?(journal = false) cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> Fmt.invalid_arg "Pmem.create: %s" msg);
  let mem = Memory.create ~size:cfg.Config.region_size in
  let stats = Stats.create () in
  let tracer = ref None in
  let write_back line_addr =
    stats.Stats.writebacks <- stats.Stats.writebacks + 1;
    (match !tracer with
    | None -> ()
    | Some tr -> Obs.Tracer.emit tr ~code:Obs.Event.writeback ~a:line_addr ~b:0);
    Memory.write_back mem ~line_addr ~len:cfg.Config.line_size
  in
  let cache =
    Cache.create ~sets:(Config.n_sets cfg) ~ways:cfg.Config.cache_ways
      ~line_size:cfg.Config.line_size ~write_back
  in
  {
    cfg;
    mem;
    cache;
    stats;
    hook = None;
    quantum = Scheduler.null_quantum;
    state = live;
    journal = (if journal then Some (Queue.create ()) else None);
    tracer;
  }

let config t = t.cfg
let stats t = t.stats
let set_step_hook t f = t.hook <- Some f
let clear_step_hook t = t.hook <- None
let set_quantum t q = t.quantum <- q
let clear_quantum t = t.quantum <- Scheduler.null_quantum

let set_tracer t tr =
  t.tracer := tr;
  (* Every trace event samples the dirty-line count: the exposure
     timeline is exactly "lines at risk were the machine to fail now". *)
  match tr with
  | None -> ()
  | Some tr -> Obs.Tracer.set_dirty tr (fun () -> Cache.dirty_count t.cache)

let tracer t = !(t.tracer)

(* All emits sit after the op's [step] charge, so the timestamp is the
   clock the op completed at.  Emission reads closures and writes ints
   into a preallocated ring — no allocation, no RNG, no cycles — so
   traced runs are sim-cycle byte-identical to untraced ones. *)
let[@inline] trace t ~code ~a ~b =
  match !(t.tracer) with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ~code ~a ~b

let step t cost =
  match t.hook with
  | Some f -> f ~cost
  | None -> t.stats.Stats.clock <- t.stats.Stats.clock + cost

(* Every charge: consume the scheduler quantum when one is held and the
   charge stays short of the horizon and the crash step — two
   comparisons, a clock add and a step count, no closure call, no
   effect — and fall back to the full [step] road otherwise. *)
let[@inline] qstep t cost =
  if not (Scheduler.quantum_try_charge t.quantum ~cost) then step t cost

let charge t cycles =
  if cycles > 0 && t.state <> cost_free_state then begin
    t.stats.Stats.compute_cycles <- t.stats.Stats.compute_cycles + cycles;
    qstep t cycles
  end

(* The one device-state test every op makes before it charges: [true]
   on a live device, [false] inside [cost_free], [Crashed_device]
   between a crash and its recovery. *)
let[@inline] costed t =
  if t.state = live then true
  else if t.state = crashed then raise Crashed_device
  else false

let[@inline] touch_hit t ~addr ~dirty = Cache.touch t.cache ~addr ~dirty = Cache.hit

(* Inlined into the [int64] entry points, so the word is boxed only
   when a journal exists, not to make the call. *)
let[@inline] record_store t addr v =
  match t.journal with
  | None -> ()
  | Some q -> Queue.add (addr, v) q

(* Journal variant for the int fast path: the [int64] box is only built
   when a journal actually exists (tests and fault-injection runs). *)
let record_store_int t addr v =
  match t.journal with
  | None -> ()
  | Some q -> Queue.add (addr, Int64.of_int v) q

(* Every flush or eviction of a dirty line counts in [writebacks].  If
   one ran during a store's charge (another thread may have run), the
   store's line may be clean where the value lands: re-dirty it, or a
   rescue would drop the store. *)
let[@inline] redirty t addr ~since =
  if t.stats.Stats.writebacks <> since && not (Cache.is_dirty t.cache ~addr)
  then ignore (Cache.touch t.cache ~addr ~dirty:true : int)

(* The accounting bodies: each access kind counts the access, touches
   the cache, charges and traces here, once for its [int64] and its
   [int] entry point.  The two entry points of a kind differ only in
   their [Memory] call and their journal boxing, and the int ones keep
   the word in registers — the 10k-op load/store regression test
   asserts zero minor allocation.  A store or CAS body returns the
   write-back count from before its charge, for [redirty].  The entry
   points run a body only when [costed] says so; inside [cost_free] a
   store or successful CAS writes both images instead, so the word is
   durable the moment it lands and no cache line holds it. *)

let[@inline] load_charge t addr =
  let st = t.stats in
  st.Stats.loads <- st.Stats.loads + 1;
  let cost =
    if touch_hit t ~addr ~dirty:false then begin
      st.Stats.load_hits <- st.Stats.load_hits + 1;
      t.cfg.Config.load_hit
    end
    else begin
      st.Stats.load_misses <- st.Stats.load_misses + 1;
      t.cfg.Config.load_miss
    end
  in
  st.Stats.load_cycles <- st.Stats.load_cycles + cost;
  qstep t cost;
  trace t ~code:Obs.Event.load ~a:addr ~b:cost

let[@inline] store_charge t addr =
  let st = t.stats in
  st.Stats.stores <- st.Stats.stores + 1;
  let cost =
    if touch_hit t ~addr ~dirty:true then begin
      st.Stats.store_hits <- st.Stats.store_hits + 1;
      t.cfg.Config.store_cost
    end
    else begin
      st.Stats.store_misses <- st.Stats.store_misses + 1;
      t.cfg.Config.store_cost + t.cfg.Config.store_miss_extra
    end
  in
  st.Stats.store_cycles <- st.Stats.store_cycles + cost;
  let wb = st.Stats.writebacks in
  qstep t cost;
  trace t ~code:Obs.Event.store ~a:addr ~b:cost;
  wb

(* The charge (and hence any scheduler yield) happens before the
   read-modify-write, which then executes indivisibly: no other thread
   can run between the comparison and the write. *)
let[@inline] cas_charge t addr =
  let st = t.stats in
  st.Stats.cas_ops <- st.Stats.cas_ops + 1;
  let base =
    if touch_hit t ~addr ~dirty:true then t.cfg.Config.store_cost
    else t.cfg.Config.store_cost + t.cfg.Config.store_miss_extra
  in
  let cost = base + t.cfg.Config.cas_extra in
  st.Stats.cas_cycles <- st.Stats.cas_cycles + cost;
  let wb = st.Stats.writebacks in
  qstep t cost;
  trace t ~code:Obs.Event.cas ~a:addr ~b:cost;
  wb

let[@inline] load t addr =
  if costed t then load_charge t addr;
  Memory.load t.mem addr

let[@inline] load_int t addr =
  if costed t then load_charge t addr;
  Memory.load_int t.mem addr

let[@inline] store t addr v =
  if costed t then begin
    let wb = store_charge t addr in
    Memory.store t.mem addr v;
    redirty t addr ~since:wb
  end
  else Memory.store_through t.mem addr v;
  record_store t addr v

let[@inline] store_int t addr v =
  if costed t then begin
    let wb = store_charge t addr in
    Memory.store_int t.mem addr v;
    redirty t addr ~since:wb
  end
  else Memory.store_int_through t.mem addr v;
  record_store_int t addr v

let cas_failed t = t.stats.Stats.cas_failures <- t.stats.Stats.cas_failures + 1

let[@inline] cas t addr ~expected ~desired =
  if costed t then begin
    let wb = cas_charge t addr in
    if Int64.equal (Memory.load t.mem addr) expected then begin
      Memory.store t.mem addr desired;
      redirty t addr ~since:wb;
      record_store t addr desired;
      true
    end
    else begin
      cas_failed t;
      false
    end
  end
  else if Int64.equal (Memory.load t.mem addr) expected then begin
    Memory.store_through t.mem addr desired;
    record_store t addr desired;
    true
  end
  else false

let[@inline] cas_int t addr ~expected ~desired =
  if costed t then begin
    let wb = cas_charge t addr in
    if Memory.cas_int t.mem addr ~expected ~desired then begin
      redirty t addr ~since:wb;
      record_store_int t addr desired;
      true
    end
    else begin
      cas_failed t;
      false
    end
  end
  else if Memory.cas_int t.mem addr ~expected ~desired then begin
    Memory.store_int_through t.mem addr desired;
    record_store_int t addr desired;
    true
  end
  else false

let flush t addr =
  if costed t then begin
    t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
    t.stats.Stats.flush_cycles <-
      t.stats.Stats.flush_cycles + t.cfg.Config.flush_cost;
    qstep t t.cfg.Config.flush_cost;
    trace t ~code:Obs.Event.flush ~a:addr ~b:t.cfg.Config.flush_cost;
    ignore (Cache.flush_line t.cache ~addr : bool)
  end

let fence t =
  if costed t then begin
    t.stats.Stats.fences <- t.stats.Stats.fences + 1;
    t.stats.Stats.fence_cycles <-
      t.stats.Stats.fence_cycles + t.cfg.Config.fence_cost;
    qstep t t.cfg.Config.fence_cost;
    trace t ~code:Obs.Event.fence ~a:0 ~b:t.cfg.Config.fence_cost
  end

(* [Crashed_device] on a crashed device, [Invalid_argument] inside a
   cost-free scope: [crash] and [persist_all] act on the cache and the
   clock, which the scope leaves behind, and scopes do not nest. *)
let check_live t what =
  if not (costed t) then Fmt.invalid_arg "Pmem.%s: inside cost_free" what

(* A step hook means a scheduler is running threads, whose yields live
   in the charges this scope skips. *)
let cost_free t f =
  check_live t "cost_free";
  if Option.is_some t.hook then
    invalid_arg "Pmem.cost_free: a step hook is installed";
  t.state <- cost_free_state;
  Fun.protect ~finally:(fun () -> t.state <- live) f

type crash_damage = {
  rescued : int;
  torn : int;
  dropped : int;
  bit_flips : int;
}

let no_damage = { rescued = 0; torn = 0; dropped = 0; bit_flips = 0 }

let crash t ~fault ?(rescue_limit = max_int) ~rng () =
  check_live t "crash";
  (* Crash injection ends any in-flight burst: the quantum is revoked
     before the device dies, so no later charge rides it (normally a
     no-op — the run loop revokes whenever control comes back to it —
     but a crash forced from inside a thread hits this). *)
  Scheduler.quantum_settle t.quantum;
  let st = t.stats in
  st.Stats.crashes <- st.Stats.crashes + 1;
  (* Emitted before the rescue/drop so the event's dirty-line sample is
     the exposure at the instant of failure. *)
  trace t ~code:Obs.Event.crash ~a:(Fault_model.tag fault) ~b:0;
  let line_size = t.cfg.Config.line_size in
  let words_per_line = line_size / 8 in
  let rescue_line addr =
    st.Stats.writebacks <- st.Stats.writebacks + 1;
    Memory.write_back t.mem ~line_addr:addr ~len:line_size
  in
  (* Write back only a prefix of the line's words: the write-back was
     interrupted mid-line, so at least the last word keeps its stale
     durable contents.  A zero-word tear moves no bytes, so it is not a
     write-back in the ledger — the interruption landed before the first
     word left the cache (the RNG draw is made by the caller either way,
     so crash images stay seed-reproducible). *)
  let tear_line addr ~words =
    if words > 0 then begin
      st.Stats.writebacks <- st.Stats.writebacks + 1;
      for w = 0 to words - 1 do
        Memory.write_back_word t.mem (addr + (w * 8))
      done
    end
  in
  let damage =
    match (fault : Fault_model.t) with
    | Full_rescue ->
        let n = Cache.write_back_all t.cache in
        { no_damage with rescued = n }
    | Full_discard ->
        let n = Cache.drop_all t.cache in
        { no_damage with dropped = n }
    | Partial_rescue _ ->
        (* [dirty_lines] is sorted, so the prefix the budget affords is
           deterministic: lowest line address first. *)
        let dirty = Cache.dirty_lines t.cache in
        let rescued = ref 0 and dropped = ref 0 in
        List.iter
          (fun addr ->
            if !rescued < rescue_limit then begin
              rescue_line addr;
              incr rescued
            end
            else incr dropped)
          dirty;
        ignore (Cache.drop_all t.cache : int);
        { no_damage with rescued = !rescued; dropped = !dropped }
    | Torn_lines { prob } ->
        let threshold = int_of_float (prob *. 1_000_000.) in
        let dirty = Cache.dirty_lines t.cache in
        let rescued = ref 0 and torn = ref 0 in
        List.iter
          (fun addr ->
            if rng 1_000_000 < threshold then begin
              tear_line addr ~words:(rng words_per_line);
              incr torn
            end
            else begin
              rescue_line addr;
              incr rescued
            end)
          dirty;
        ignore (Cache.drop_all t.cache : int);
        { no_damage with rescued = !rescued; torn = !torn }
    | Bit_rot { flips } ->
        let n = Cache.write_back_all t.cache in
        let words = Memory.size t.mem / 8 in
        for _ = 1 to flips do
          let addr = 8 * rng words in
          let bit = rng 64 in
          Memory.flip_durable_bit t.mem ~addr ~bit
        done;
        { no_damage with rescued = n; bit_flips = flips }
  in
  st.Stats.rescued_lines <- st.Stats.rescued_lines + damage.rescued;
  st.Stats.torn_lines <- st.Stats.torn_lines + damage.torn;
  st.Stats.dropped_lines <- st.Stats.dropped_lines + damage.dropped;
  st.Stats.flipped_bits <- st.Stats.flipped_bits + damage.bit_flips;
  t.state <- crashed;
  damage

let recover t =
  if t.state <> crashed then invalid_arg "Pmem.recover: device has not crashed";
  Memory.discard_current t.mem;
  ignore (Cache.drop_all t.cache : int);
  Option.iter Queue.clear t.journal;
  t.state <- live;
  trace t ~code:Obs.Event.recover ~a:0 ~b:0

let is_crashed t = t.state = crashed

let persist_all t =
  check_live t "persist_all";
  let dirty = Cache.dirty_lines t.cache in
  List.iter (fun addr -> flush t addr) dirty;
  fence t
let load_durable t addr = Memory.load_durable t.mem addr
let[@inline] peek t addr = Memory.load t.mem addr
let[@inline] peek_int t addr = Memory.load_int t.mem addr
let peek_page_untouched t addr = Memory.page_untouched t.mem addr
let durable_snapshot t = Memory.durable_snapshot t.mem
let dirty_line_count t = Cache.dirty_count t.cache

let store_history t =
  match t.journal with
  | None -> []
  | Some q -> List.of_seq (Queue.to_seq q)

let last_values t =
  match t.journal with
  | None -> invalid_arg "Pmem: device was created without ~journal:true"
  | Some q ->
      (* Distinct addresses <= journal entries; sizing from the journal
         avoids rehash-on-grow for long histories and over-allocation
         for short ones. *)
      let last = Hashtbl.create (Int.max 16 (Queue.length q)) in
      Queue.iter (fun (addr, v) -> Hashtbl.replace last addr v) q;
      last

let lost_store_count t =
  let last = last_values t in
  Hashtbl.fold
    (fun addr v acc ->
      if Int64.equal (Memory.load_durable t.mem addr) v then acc else acc + 1)
    last 0

let durable_reflects_all_stores t = lost_store_count t = 0
