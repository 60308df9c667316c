type stats = {
  live_objects : int;
  live_words : int;
  freed_objects : int;
  freed_words : int;
  coalesced_blocks : int;
  dangling_refs : int;
  mark_cycles : int;
  sweep_cycles : int;
}

let strip_tag a = a land lnot 7
(* Pointer words may carry tag bits in the low three bits (the lock-free
   skip list uses bit 0 as its deletion mark); heap addresses are always
   8-byte aligned, so masking recovers the address. *)

let clock heap = (Nvm.Pmem.stats (Heap.pmem heap)).Nvm.Stats.clock

(* Growable int stack: the mark loops' only per-push cost is an array
   store, so marking a million-object heap stays out of the minor heap.
   It also buffers one object's scanner emissions. *)
module Istack = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let pop t =
    t.n <- t.n - 1;
    t.a.(t.n)

  let is_empty t = t.n = 0
  let clear t = t.n <- 0
end

type quarantine = {
  unscannable : int;
  quarantined_words : int;
  reasons : string list;
}

(* What a mark phase found, whichever traversal produced it. *)
type discovery = {
  d_marks : Nvm.Intset.t;
  d_dangling : int;
  d_unscannable : int;
  d_reasons : string list;  (* oldest first *)
  d_lines : int;  (* streamed bill: root line + lines spanned by every object *)
}

(* The eager mark: a DFS whose every read is a costed device load, so
   the charge sequence follows the visit order exactly.  Per object it
   loads the header twice ([kind_of], [words_of]), runs the kind's
   scanner into [emitted] and pushes the emissions last to first, so
   the first child emitted is the next object visited.
   Pushes are gated by [is_object_start] (a cost-free peek), so only a
   scan can blow up on an adversarial image — an unregistered kind
   byte, or a header size so large that field loads leave the region.
   Such an object stays marked (never free what we cannot parse) but is
   not traversed: its buffered emissions are dropped. *)
let mark heap =
  let pmem = Heap.pmem heap in
  let marks = Nvm.Intset.create ~capacity:4096 () in
  let dangling = ref 0 in
  let unscannable = ref 0 in
  let reasons = ref [] in
  let load a = Nvm.Pmem.load_int pmem a in
  let stack = Istack.create () in
  let emitted = Istack.create () in
  let emit p = Istack.push emitted p in
  let push a =
    let a = strip_tag a in
    if a <> Heap.null && not (Nvm.Intset.mem marks a) then
      if Heap.is_object_start heap a then begin
        ignore (Nvm.Intset.add marks a : bool);
        Istack.push stack a
      end
      else incr dangling
  in
  push (Heap.get_root heap);
  while not (Istack.is_empty stack) do
    let a = Istack.pop stack in
    Istack.clear emitted;
    match
      let kind = Heap.kind_of heap a in
      let words = Heap.words_of heap a in
      Kind.scan_object ~kind ~load ~addr:a ~words ~emit
    with
    | () ->
        while not (Istack.is_empty emitted) do
          push (Istack.pop emitted)
        done
    | exception Heap.Corrupt msg | exception Invalid_argument msg ->
        incr unscannable;
        reasons := Fmt.str "object %d unscannable: %s" a msg :: !reasons
  done;
  {
    d_marks = marks;
    d_dangling = !dangling;
    d_unscannable = !unscannable;
    d_reasons = List.rev !reasons;
    d_lines = 0;
  }

let reachable heap = (mark heap).d_marks

(* ------------------------------------------------------------------ *)
(* Streamed discovery: the scalable mark engine behind the parallel and
   incremental recovery modes.

   The eager mark above reads every word through the costed cache
   simulation, which pins its charge sequence to the exact DFS order —
   correct, but inherently serial and expensive to simulate on
   million-object heaps.  The streamed engine instead *discovers* the
   live set with cost-free peeks ([Nvm.Pmem.peek_int] touches neither
   the cache model nor the statistics), counting the cache lines it
   touches — one line fetch covers an object's header, fields and every
   in-object scanner read — and then charges one analytic bill: every
   counted line at the cold-miss price.  That models a recovery scan
   that streams the heap once with no reuse between objects, and —
   because peeks are effect-free — the count, the mark set and the
   resulting charge are independent of how the scan is scheduled.
   Partitioning the frontier across domains is therefore free of
   determinism hazards: the result is byte-identical for any worker
   count, including one.

   Discovery is a level-synchronous BFS.  Each frontier is split into
   fixed-size chunks (independent of the worker count); workers scan
   their chunk's objects into private buffers; a sequential merge in
   chunk order deduplicates candidates into the global mark set.  The
   per-chunk outputs are pure functions of the chunk contents, and the
   merge order is fixed, so the discovery order — and with it the mark
   set's insertion order — never depends on scheduling. *)

let chunk_size = 2048

type chunk_out = {
  mutable cand : int array;  (* emitted valid object starts, scan order *)
  mutable cand_n : int;
  mutable c_dangling : int;
  mutable c_lines : int;  (* cache lines spanned by the scanned objects *)
  mutable c_unscannable : int;
  mutable c_reasons : string list;  (* newest first *)
}

let chunk_out () =
  {
    cand = Array.make 256 0;
    cand_n = 0;
    c_dangling = 0;
    c_lines = 0;
    c_unscannable = 0;
    c_reasons = [];
  }

let push_cand out p =
  if out.cand_n = Array.length out.cand then begin
    let b = Array.make (2 * out.cand_n) 0 in
    Array.blit out.cand 0 b 0 out.cand_n;
    out.cand <- b
  end;
  out.cand.(out.cand_n) <- p;
  out.cand_n <- out.cand_n + 1

(* Scan objects [lo, hi) of [objs] into [out].  Dangling emissions are
   order-independent (an invalid non-null target counts once per
   emission; valid targets never count), so counting them here in the
   worker is safe.  An object whose scan raises keeps its mark but
   contributes nothing — its partial emissions are rolled back, as the
   eager mark drops its buffered ones. *)
let run_chunk heap objs lo hi out =
  let pmem = Heap.pmem heap in
  let line_words = (Nvm.Pmem.config pmem).Nvm.Config.line_size / 8 in
  let load a = Nvm.Pmem.peek_int pmem a in
  let emit p =
    let p = strip_tag p in
    if p <> Heap.null then
      if Heap.is_object_start heap p then push_cand out p
      else out.c_dangling <- out.c_dangling + 1
  in
  for i = lo to hi - 1 do
    let a = objs.(i) in
    let h = Nvm.Pmem.peek_int pmem (a - Layout.word_size) in
    let kind = Layout.header_kind_i h in
    let words = Layout.header_words_i h in
    (* The scanner contract keeps every read inside [header, end): one
       streamed fetch of the object's span covers them all. *)
    out.c_lines <- out.c_lines + ((words + 1 + line_words - 1) / line_words);
    let saved_n = out.cand_n in
    let saved_d = out.c_dangling in
    match Kind.scan_object ~kind ~load ~addr:a ~words ~emit with
    | () -> ()
    | exception Heap.Corrupt msg | exception Invalid_argument msg ->
        out.cand_n <- saved_n;
        out.c_dangling <- saved_d;
        out.c_unscannable <- out.c_unscannable + 1;
        out.c_reasons <-
          Fmt.str "object %d unscannable: %s" a msg :: out.c_reasons
  done

let seq_fanout tasks = List.iter (fun f -> f ()) tasks

let discover ?(fanout = seq_fanout) heap =
  let pmem = Heap.pmem heap in
  let marks = Nvm.Intset.create ~capacity:4096 () in
  let dangling = ref 0 in
  let unscannable = ref 0 in
  let reasons = ref [] in
  let lines = ref 1 (* the line holding the root word *) in
  let frontier = Istack.create () in
  (let root = strip_tag (Nvm.Pmem.peek_int pmem (Heap.base heap + Layout.root_offset)) in
   if root <> Heap.null then
     if Heap.is_object_start heap root then begin
       ignore (Nvm.Intset.add marks root : bool);
       Istack.push frontier root
     end
     else incr dangling);
  while not (Istack.is_empty frontier) do
    let objs = Array.sub frontier.Istack.a 0 frontier.Istack.n in
    Istack.clear frontier;
    let n = Array.length objs in
    let n_chunks = (n + chunk_size - 1) / chunk_size in
    let outs = Array.init n_chunks (fun _ -> chunk_out ()) in
    let tasks =
      List.init n_chunks (fun c () ->
          run_chunk heap objs (c * chunk_size)
            (min n ((c + 1) * chunk_size))
            outs.(c))
    in
    fanout tasks;
    (* Deterministic merge: chunk order, then emission order within the
       chunk.  [Intset.add] deduplicates against everything discovered
       so far, including earlier chunks of this level. *)
    Array.iter
      (fun out ->
        dangling := !dangling + out.c_dangling;
        lines := !lines + out.c_lines;
        unscannable := !unscannable + out.c_unscannable;
        reasons := List.rev_append out.c_reasons !reasons;
        for i = 0 to out.cand_n - 1 do
          let p = out.cand.(i) in
          if Nvm.Intset.add marks p then Istack.push frontier p
        done)
      outs
  done;
  {
    d_marks = marks;
    d_dangling = !dangling;
    d_unscannable = !unscannable;
    d_reasons = List.rev !reasons;
    d_lines = !lines;
  }

(* ------------------------------------------------------------------ *)
(* The sweep, planned once for every mode.  The walk reads each header
   with a costed load or, for the streamed modes, a peek, and stores
   nothing; applying the plan is the one [Heap.reset_allocator] call.
   It also counts the distinct cache lines its header reads touch, the
   streamed sweep's bill: the walk is monotonic, so adjacent
   small-object headers sharing a line cost one fetch — the streaming
   sweep's sequential win.  Every header read is a walked block's or,
   when the chain stops parsing, the damaged one's, so the count is
   taken from those addresses rather than inside the read.  Runs of
   contiguous dead/free blocks coalesce into one free block whose data
   address is the run's first and whose size swallows the headers of
   all merged blocks but the first.  If the block chain stops parsing,
   the blocks before the damage sweep normally and the tail is
   withheld from the allocator. *)

type sweep_plan = {
  p_live_objects : int;
  p_live_words : int;
  p_freed_objects : int;
  p_freed_words : int;
  p_free_blocks : (int * int) list;  (* highest address first *)
  p_quarantined_words : int;
  p_reasons : string list;
  p_header_lines : int;
}

let plan_sweep heap ~costed marks =
  let line_size = (Nvm.Pmem.config (Heap.pmem heap)).Nvm.Config.line_size in
  let lines = ref 0 in
  let last_line = ref (-1) in
  let count_line header_addr =
    let ln = header_addr / line_size in
    if ln <> !last_line then begin
      incr lines;
      last_line := ln
    end
  in
  let live_objects = ref 0 in
  let live_words = ref 0 in
  let freed_objects = ref 0 in
  let freed_words = ref 0 in
  let free_blocks = ref [] in
  let run_start = ref 0 in
  let run_end = ref 0 in
  let flush_run () =
    if !run_start <> 0 then begin
      let words = (!run_end - !run_start) / Layout.word_size in
      free_blocks := (!run_start, words) :: !free_blocks;
      freed_words := !freed_words + words;
      run_start := 0
    end
  in
  let walk =
    Heap.fold_blocks_checked heap ~costed (fun ~addr ~kind ~words ->
        count_line (Layout.obj_header_addr addr);
        if Nvm.Intset.mem marks addr then begin
          flush_run ();
          incr live_objects;
          live_words := !live_words + words
        end
        else begin
          if kind <> Layout.kind_free then incr freed_objects;
          if !run_start = 0 then run_start := addr;
          run_end := addr + (words * Layout.word_size)
        end)
  in
  flush_run ();
  let quarantined_words, reasons =
    match walk with
    | Ok () -> (0, [])
    | Error (header_addr, msg) ->
        count_line header_addr;
        ( (Heap.end_addr heap - header_addr) / Layout.word_size,
          [ Fmt.str "heap tail quarantined: %s" msg ] )
  in
  {
    p_live_objects = !live_objects;
    p_live_words = !live_words;
    p_freed_objects = !freed_objects;
    p_freed_words = !freed_words;
    p_free_blocks = !free_blocks;
    p_quarantined_words = quarantined_words;
    p_reasons = reasons;
    p_header_lines = !lines;
  }

let load_miss heap = (Nvm.Pmem.config (Heap.pmem heap)).Nvm.Config.load_miss

let stats_of disc plan ~mark_cycles ~sweep_cycles =
  ( {
      live_objects = plan.p_live_objects;
      live_words = plan.p_live_words;
      freed_objects = plan.p_freed_objects;
      freed_words = plan.p_freed_words;
      coalesced_blocks = List.length plan.p_free_blocks;
      dangling_refs = disc.d_dangling;
      mark_cycles;
      sweep_cycles;
    },
    {
      unscannable = disc.d_unscannable;
      quarantined_words = plan.p_quarantined_words;
      reasons = disc.d_reasons @ plan.p_reasons;
    } )

(* The mark and sweep run as tracer sub-phases, so their split shows up
   in the observability timeline as well as in [stats]. *)
let collect heap =
  let tracer = Nvm.Pmem.tracer (Heap.pmem heap) in
  let c0 = clock heap in
  let disc =
    Obs.Tracer.in_phase tracer ~phase:Obs.Event.phase_gc_mark (fun () ->
        mark heap)
  in
  let c1 = clock heap in
  let plan =
    Obs.Tracer.in_phase tracer ~phase:Obs.Event.phase_gc_sweep (fun () ->
        let p = plan_sweep heap ~costed:true disc.d_marks in
        Heap.reset_allocator heap ~free:p.p_free_blocks;
        p)
  in
  let c2 = clock heap in
  stats_of disc plan ~mark_cycles:(c1 - c0) ~sweep_cycles:(c2 - c1)

module Incremental = struct
  type gc = {
    heap : Heap.t;
    marks : Nvm.Intset.t;
    stats : stats;
    quarantine : quarantine;
    free_blocks : (int * int) list;
    total : int;
    miss : int;
    touched : Nvm.Intset.t;
    mutable consumed : int;
    mutable on_demand_count : int;
    mutable applied : bool;
  }

  type t = gc

  let start ?fanout heap =
    let disc = discover ?fanout heap in
    let plan = plan_sweep heap ~costed:false disc.d_marks in
    let miss = load_miss heap in
    let mark_cycles = disc.d_lines * miss in
    let sweep_cycles = plan.p_header_lines * miss in
    let stats, quarantine = stats_of disc plan ~mark_cycles ~sweep_cycles in
    {
      heap;
      marks = disc.d_marks;
      stats;
      quarantine;
      free_blocks = plan.p_free_blocks;
      total = mark_cycles + sweep_cycles;
      miss;
      touched = Nvm.Intset.create ~capacity:1024 ();
      consumed = 0;
      on_demand_count = 0;
      applied = false;
    }

  let total_cycles t = t.total
  let remaining_cycles t = t.total - t.consumed
  let plan t = (t.stats, t.quarantine)
  let finished t = t.applied

  let advance t ~budget =
    if t.applied then 0
    else begin
      let take = min budget (remaining_cycles t) in
      if take > 0 then begin
        Nvm.Pmem.charge (Heap.pmem t.heap) take;
        t.consumed <- t.consumed + take
      end;
      take
    end

  let on_demand t =
    if t.applied then 0
    else begin
      let marked = max 1 (Nvm.Intset.cardinal t.marks) in
      let cost = max t.miss (t.total / marked) in
      Nvm.Pmem.charge (Heap.pmem t.heap) cost;
      t.consumed <- min t.total (t.consumed + cost);
      t.on_demand_count <- t.on_demand_count + 1;
      cost
    end

  let on_demand_count t = t.on_demand_count

  let touch t ~addr =
    let a = strip_tag addr in
    if a <> Heap.null && Nvm.Intset.mem t.marks a && Nvm.Intset.add t.touched a
    then begin
      let h = Nvm.Pmem.peek_int (Heap.pmem t.heap) (a - Layout.word_size) in
      let words = Layout.header_words_i h in
      let lw = (Nvm.Pmem.config (Heap.pmem t.heap)).Nvm.Config.line_size / 8 in
      let cost = (words + 1 + lw - 1) / lw * t.miss in
      Nvm.Pmem.charge (Heap.pmem t.heap) cost;
      t.consumed <- min t.total (t.consumed + cost);
      cost
    end
    else 0

  let finish t =
    if not t.applied then begin
      let rem = remaining_cycles t in
      if rem > 0 then begin
        Nvm.Pmem.charge (Heap.pmem t.heap) rem;
        t.consumed <- t.total
      end;
      Heap.reset_allocator t.heap ~free:t.free_blocks;
      t.applied <- true
    end;
    (t.stats, t.quarantine)
end

(* The streamed collection is the incremental plan paid at once:
   discovery and planning only peek, so running them before the mark
   bill moves no cycle and no tracer event. *)
let collect_streamed ?fanout heap =
  let tracer = Nvm.Pmem.tracer (Heap.pmem heap) in
  let inc = Incremental.start ?fanout heap in
  let stats, _ = Incremental.plan inc in
  Obs.Tracer.in_phase tracer ~phase:Obs.Event.phase_gc_mark (fun () ->
      ignore (Incremental.advance inc ~budget:stats.mark_cycles : int));
  Obs.Tracer.in_phase tracer ~phase:Obs.Event.phase_gc_sweep (fun () ->
      Incremental.finish inc)

(* The audit keeps one tag byte per heap word of [start_addr, end_addr),
   indexed by word offset: pass 1 tags the data address of every
   non-free block it walks, and pass 2 re-tags an object visited when it
   first reaches it.  It stays a traversal of its own rather than a
   reader over [mark]: its object-start test (a block the chain walk
   reached) is stricter than the mark's [Heap.is_object_start], and the
   mark's charge sequence is pinned.  Headers are read twice — pass 1
   checks each (a full-word peek, since validity includes bit 63,
   decoded in a register), pass 2 re-reads a valid one as an [int] at
   visit time — so per-object state is the tag byte alone. *)
let tag_block = '\001'
let tag_visited = '\002'

let verify heap =
  let pmem = Heap.pmem heap in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let peek_int a = Nvm.Pmem.peek_int pmem a in
  let start = Heap.start_addr heap and stop = Heap.end_addr heap in
  let tags = Bytes.make ((stop - start) / Layout.word_size) '\000' in
  (* Pass 1: the block chain must tile the allocated span exactly. *)
  let rec walk header_addr =
    if header_addr < stop then begin
      let h = Nvm.Pmem.peek pmem header_addr in
      if not (Layout.header_valid h) then
        err "invalid header at %d: %Lx" header_addr h
      else begin
        let words = Layout.header_words h in
        let kind = Layout.header_kind h in
        let a = header_addr + Layout.word_size in
        let next = a + (words * Layout.word_size) in
        if next > stop then err "block at %d overruns heap end" a
        else begin
          if kind <> Layout.kind_free then begin
            if not (Kind.is_registered kind) then
              err "object at %d has unregistered kind %d" a kind;
            Bytes.set tags ((a - start) / Layout.word_size) tag_block
          end;
          walk next
        end
      end
    end
  in
  walk start;
  (* Pass 2: pointers from reachable objects must target valid objects. *)
  if !errors = [] then begin
    let stack = Istack.create () in
    let emitted = Istack.create () in
    let emit p = Istack.push emitted p in
    let push src a =
      let a = strip_tag a in
      if a <> Heap.null then begin
        let i = (a - start) / Layout.word_size in
        let tag = if a >= start && a < stop then Bytes.get tags i else '\000' in
        if tag = tag_block then begin
          Bytes.set tags i tag_visited;
          Istack.push stack a
        end
        else if tag <> tag_visited then
          err "object %d references invalid address %d" src a
      end
    in
    push 0 (peek_int (Heap.base heap + Layout.root_offset));
    while not (Istack.is_empty stack) do
      let a = Istack.pop stack in
      let h = peek_int (Layout.obj_header_addr a) in
      (* Emissions pushed last to first, as in [mark]. *)
      Istack.clear emitted;
      Kind.scan_object ~kind:(Layout.header_kind_i h) ~load:peek_int ~addr:a
        ~words:(Layout.header_words_i h) ~emit;
      while not (Istack.is_empty emitted) do
        push a (Istack.pop emitted)
      done
    done
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_stats ppf s =
  Fmt.pf ppf
    "live %d objs / %d words; reclaimed %d objs, %d words in %d free blocks; \
     dangling refs %d; mark %d cycles, sweep %d cycles"
    s.live_objects s.live_words s.freed_objects s.freed_words
    s.coalesced_blocks s.dangling_refs s.mark_cycles s.sweep_cycles
