module Heap = Pheap.Heap
module Scheduler = Sched.Scheduler
module Int_table = Nvm.Int_table

type costs = { lock_cycles : int; unlock_cycles : int; log_cycles : int }

let default_costs = { lock_cycles = 30; unlock_cycles = 20; log_cycles = 45 }

type ocs_info = {
  id : int;
  tid : int;
  mutable committed : bool;
  mutable stable : bool;
  mutable deps : int list;
  mutable rev_deps : int list;
  mutable seg_last : int;  (* address of the OCS's most recent log entry *)
}

type ctx = {
  tid : int;
  mutable depth : int;
  mutable current : ocs_info option;
  logged : Nvm.Intset.t;  (* word addresses already logged in the open OCS *)
  dirtied : Nvm.Intset.t;  (* line addresses; Log_flush commits *)
  segments : int Queue.t;  (* unpruned OCS ids of this thread, oldest first *)
}

type t = {
  mode : Mode.t;
  heap : Heap.t;
  ulog : Undo_log.t;
  costs : costs;
  line_mask : int;  (* lnot (line_size - 1); line_size is a power of two *)
  mutable next_ocs : int;
  mutable next_seq : int;
  mutable started : int;
  table : ocs_info Int_table.t;  (* unpruned sections by id; never iterated *)
  ctxs : ctx array;
  (* Deferred durability (Log_flush_async): committed sections whose
     data has not yet reached the persistence domain, in commit order,
     with the union of their dirtied lines. *)
  mutable commits_since_checkpoint : int;
  mutable in_checkpoint : bool;
  pending : (int * int) Queue.t;  (* commit seq, ocs id *)
  pending_lines : (int, unit) Hashtbl.t;
      (* a polymorphic table on purpose: its [iter] order is the
         durability point's flush order *)
}

type amutex = {
  m : Scheduler.Mutex.mutex;
  amid : int;
  mutable last_release : int;  (* OCS id, 0 = none *)
}

(* Commits between two automatic durability points (Log_flush_async). *)
let checkpoint_every = 32

let create ?(costs = default_costs) ?(first_seq = 1) ~mode ~heap ~log_base
    ~log_size ~num_threads () =
  let pmem = Heap.pmem heap in
  let ulog = Undo_log.format pmem ~base:log_base ~size:log_size ~num_threads in
  if Mode.deferred_durability mode then Undo_log.set_watermark ulog 0;
  let ctx tid =
    {
      tid;
      depth = 0;
      current = None;
      logged = Nvm.Intset.create ~capacity:64 ();
      dirtied = Nvm.Intset.create ~capacity:64 ();
      segments = Queue.create ();
    }
  in
  {
    mode;
    heap;
    ulog;
    costs;
    line_mask = lnot ((Nvm.Pmem.config pmem).Nvm.Config.line_size - 1);
    next_ocs = 1;
    next_seq = first_seq;
    started = 0;
    table = Int_table.create 256;
    ctxs = Array.init num_threads ctx;
    commits_since_checkpoint = 0;
    in_checkpoint = false;
    pending = Queue.create ();
    pending_lines = Hashtbl.create 256;
  }

let mode t = t.mode

let thread_ctx t ~tid =
  if tid < 0 || tid >= Array.length t.ctxs then
    Fmt.invalid_arg "Atlas.thread_ctx: bad tid %d" tid;
  t.ctxs.(tid)

let make_mutex t sched =
  ignore t;
  let m = Scheduler.Mutex.create sched in
  { m; amid = Scheduler.Mutex.id m; last_release = 0 }

let mutex_id am = am.amid

let pmem t = Heap.pmem t.heap

(* Tracing rides the device's tracer: Atlas-level events (log appends,
   OCS begin/commit, dependency edges) land in the same ring as the
   device ops they interleave with.  Reads and int writes only. *)
let[@inline] trace t ~code ~a ~b =
  match Nvm.Pmem.tracer (pmem t) with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ~code ~a ~b

(* One entry appended, from its words to the device: inlined into
   [append] and into [store]'s Update, so no word is boxed on the way
   (see [Log_entry.write]). *)
let[@inline] append_words t (ctx : ctx) ~ty ~a ~b =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let addr = Undo_log.append_words t.ulog ~tid:ctx.tid ~ty ~seq ~a ~b in
  (match ctx.current with
  | Some cur -> cur.seg_last <- addr
  | None -> assert false);
  Nvm.Pmem.charge (pmem t) t.costs.log_cycles;
  trace t ~code:Obs.Event.log_append ~a:seq ~b:0;
  if Mode.flushes t.mode then Undo_log.flush_entry t.ulog ~entry_addr:addr

(* Begin, Dep and Commit entries, whose second word is an int, share
   this one out-of-line copy. *)
let append t ctx ~ty ~a ~b = append_words t ctx ~ty ~a ~b:(Int64.of_int b)

(* Stability: an OCS can never be rolled back once it is committed and
   every section it depends on is itself stable.  Stability is monotone,
   so we propagate it eagerly along reverse edges and prune as we go.
   (A cycle of mutually-dependent committed OCSes is never proven stable
   by this rule; that is conservative — its log space is retained — and
   such cycles require overlapping sections trading two mutexes.) *)
let rec prune_thread t tid =
  let ctx = t.ctxs.(tid) in
  match Queue.peek_opt ctx.segments with
  | None -> ()
  | Some id -> begin
      match Int_table.find_opt t.table id with
      | None ->
          ignore (Queue.pop ctx.segments);
          prune_thread t tid
      | Some info when info.stable ->
          ignore (Queue.pop ctx.segments);
          Undo_log.advance_tail t.ulog ~tid
            ~new_tail:(Undo_log.next_slot t.ulog info.seg_last)
            ~flush:(Mode.flushes t.mode);
          Int_table.remove t.table id;
          prune_thread t tid
      | Some _ -> ()
    end

let rec try_stabilize t id =
  match Int_table.find_opt t.table id with
  | None -> ()
  | Some info when info.stable || not info.committed -> ()
  | Some info ->
      let dep_stable d =
        match Int_table.find_opt t.table d with
        | None -> true (* pruned, hence stable *)
        | Some di -> di.stable
      in
      if List.for_all dep_stable info.deps then begin
        info.stable <- true;
        prune_thread t info.tid;
        List.iter (try_stabilize t) info.rev_deps
      end

(* Durability point: flush every line dirtied by commits since the
   last point, then advance the persistent watermark along the prefix of
   pending commits that is now stable (committed, data durable, and all
   dependencies stable).  A commit whose dependency is still an open
   section blocks the watermark — recovery must be able to cascade. *)
let checkpoint t =
  (* Flushes below are scheduler yield points, so another thread can
     commit — and try to start a durability point — while this one runs.
     The guard makes the point exclusive; commits that arrive meanwhile
     are simply covered by the next point. *)
  if
    (not t.in_checkpoint)
    && not (Hashtbl.length t.pending_lines = 0 && Queue.is_empty t.pending)
  then begin
    t.in_checkpoint <- true;
    Hashtbl.iter (fun line () -> Nvm.Pmem.flush (pmem t) line) t.pending_lines;
    Nvm.Pmem.fence (pmem t);
    Hashtbl.reset t.pending_lines;
    let advanced = ref None in
    let continue_ = ref true in
    while !continue_ do
      match Queue.peek_opt t.pending with
      | None -> continue_ := false
      | Some (seq, id) ->
          try_stabilize t id;
          let stable =
            match Int_table.find_opt t.table id with
            | None -> true (* pruned, hence stable *)
            | Some info -> info.stable
          in
          if stable then begin
            ignore (Queue.pop t.pending);
            advanced := Some seq
          end
          else continue_ := false
    done;
    (match !advanced with
    | Some seq -> Undo_log.set_watermark t.ulog seq
    | None -> ());
    t.in_checkpoint <- false
  end;
  t.commits_since_checkpoint <- 0

let begin_ocs t ctx =
  let id = t.next_ocs in
  t.next_ocs <- id + 1;
  t.started <- t.started + 1;
  let info =
    {
      id;
      tid = ctx.tid;
      committed = false;
      stable = false;
      deps = [];
      rev_deps = [];
      seg_last = 0;
    }
  in
  Int_table.replace t.table id info;
  ctx.current <- Some info;
  Queue.add id ctx.segments;
  trace t ~code:Obs.Event.ocs_begin ~a:id ~b:0;
  append t ctx ~ty:Log_entry.begin_ty ~a:id ~b:0

let record_dep t ctx am =
  match ctx.current with
  | None -> assert false
  | Some cur ->
      let lr = am.last_release in
      if lr <> 0 && lr <> cur.id && not (List.mem lr cur.deps) then begin
        match Int_table.find_opt t.table lr with
        | Some dep_info when not dep_info.stable ->
            cur.deps <- lr :: cur.deps;
            dep_info.rev_deps <- cur.id :: dep_info.rev_deps;
            trace t ~code:Obs.Event.dep ~a:lr ~b:am.amid;
            append t ctx ~ty:Log_entry.dep_ty ~a:lr ~b:am.amid
        | Some _ | None -> ()
      end

let lock t ctx am =
  Nvm.Pmem.charge (pmem t) t.costs.lock_cycles;
  Scheduler.Mutex.lock am.m;
  if Mode.logs t.mode then begin
    if ctx.depth = 0 then begin_ocs t ctx;
    record_dep t ctx am
  end;
  ctx.depth <- ctx.depth + 1

let commit t ctx =
  match ctx.current with
  | None -> assert false
  | Some cur ->
      if Mode.eager_data_flush t.mode then begin
        (* Eager durability: the section's data reaches the persistence
           domain before its commit record, so a committed-by-the-log OCS
           is never partially durable. *)
        Nvm.Intset.iter (fun line -> Nvm.Pmem.flush (pmem t) line) ctx.dirtied;
        Nvm.Pmem.fence (pmem t)
      end;
      let commit_seq = t.next_seq in
      append t ctx ~ty:Log_entry.commit_ty ~a:cur.id ~b:0;
      trace t ~code:Obs.Event.ocs_commit ~a:cur.id ~b:commit_seq;
      cur.committed <- true;
      ctx.current <- None;
      Nvm.Intset.clear ctx.logged;
      if Mode.deferred_durability t.mode then begin
        (* Data durability is deferred to the next durability point; the
           section stays unpruned (it may still be rolled back). *)
        Nvm.Intset.iter
          (fun line -> Hashtbl.replace t.pending_lines line ())
          ctx.dirtied;
        Nvm.Intset.clear ctx.dirtied;
        Queue.add (commit_seq, cur.id) t.pending;
        t.commits_since_checkpoint <- t.commits_since_checkpoint + 1;
        if t.commits_since_checkpoint >= checkpoint_every then checkpoint t
      end
      else begin
        Nvm.Intset.clear ctx.dirtied;
        try_stabilize t cur.id
      end

let unlock t ctx am =
  if ctx.depth <= 0 then invalid_arg "Atlas.unlock: not inside a section";
  if Mode.logs t.mode then begin
    (match ctx.current with
    | Some cur -> am.last_release <- cur.id
    | None -> assert false);
    if ctx.depth = 1 then commit t ctx
  end;
  ctx.depth <- ctx.depth - 1;
  Scheduler.Mutex.unlock am.m;
  Nvm.Pmem.charge (pmem t) t.costs.unlock_cycles

let with_lock t ctx am f =
  lock t ctx am;
  match f () with
  | v ->
      unlock t ctx am;
      v
  | exception e ->
      unlock t ctx am;
      raise e

let[@inline] line_addr t addr = addr land t.line_mask

let store t ctx addr v =
  match t.mode with
  | Mode.No_log -> Nvm.Pmem.store (pmem t) addr v
  | Mode.Log_only | Mode.Log_flush | Mode.Log_flush_async -> begin
      match ctx.current with
      | None ->
          invalid_arg
            "Atlas.store: persistent store outside any critical section"
      | Some _ ->
          (* [Nvm.Intset.add] answers membership and inserts in one probe
             walk; marking before the load/append is safe because [ctx]
             is thread-local and a crash discards it entirely. *)
          if Nvm.Intset.add ctx.logged addr then begin
            let old = Nvm.Pmem.load (pmem t) addr in
            append_words t ctx ~ty:Log_entry.update_ty ~a:addr ~b:old
          end;
          Nvm.Pmem.store (pmem t) addr v;
          if Mode.flushes t.mode then
            ignore (Nvm.Intset.add ctx.dirtied (line_addr t addr) : bool)
    end

let store_field t ctx obj i v = store t ctx (Heap.field_addr t.heap obj i) v

let load_field t obj i = Heap.load_field t.heap obj i

let ocs_depth ctx = ctx.depth
let current_ocs ctx = Option.map (fun (o : ocs_info) -> o.id) ctx.current
let live_log_entries t ~tid = Undo_log.live_entries t.ulog ~tid
let ocs_started t = t.started
let unpruned_ocses t = Int_table.length t.table

let watermark t = Undo_log.watermark t.ulog
let pending_commits t = Queue.length t.pending
