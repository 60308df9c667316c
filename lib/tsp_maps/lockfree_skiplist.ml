module Heap = Pheap.Heap
module Kind = Pheap.Kind
module Pmem = Nvm.Pmem
module Rng = Sched.Sim_rng

let default_max_level = 16
let next_base = 3 (* word index of the level-0 next pointer *)
let default_op_cycles = 25

let node_kind =
  Kind.register ~kind:19 ~name:"skip_node"
    ~scan:(fun ~load ~addr ~words ~emit ->
      let level = words - next_base in
      for lv = 0 to level - 1 do
        let p = load (addr + (8 * (next_base + lv))) land lnot 1 in
        if p <> 0 then emit p
      done)
    ()

type t = {
  heap : Heap.t;
  head : Heap.addr;
  max_level : int;
  rngs : Rng.t array;  (* one deterministic level generator per thread *)
  op_cycles : int;
      (* charged per operation: level generation, call overhead and the
         per-access CPU work a flat word-level simulation underestimates *)
  nvtraverse : bool;  (* persist the critical update window *)
}

let pmem t = Heap.pmem t.heap
let root t = t.head
let max_level t = t.max_level

let is_marked p = p land 1 = 1
let unmark p = p land lnot 1
let with_mark p = p lor 1

let key_of t node = Heap.load_field_int t.heap node 0
let value_of t node = Heap.load_field t.heap node 1
let level_of t node = Heap.words_of t.heap node - next_base

let read_next t node lv = Heap.load_field_int t.heap node (next_base + lv)

let cas_next t node lv ~expected ~desired =
  Heap.cas_field_int t.heap node (next_base + lv) ~expected ~desired

let alloc_node t ~key ~value ~level =
  let node = Heap.alloc t.heap ~kind:node_kind ~words:(next_base + level) in
  Heap.store_field_int t.heap node 0 key;
  Heap.store_field t.heap node 1 value;
  Heap.store_field_int t.heap node 2 level;
  node

(* NVTraverse boundary persistence: traversals run entirely unflushed;
   only on exiting to the critical update window do we flush the O(1)
   words that carry durable state — the updated value word, or the
   bottom-level link being published/marked — then issue one fence.
   Upper-level links are a volatile index (rebuilt by any traversal)
   and are never flushed, which is what drops per-op flushes from
   O(path length) to O(1).  Every call site tests [t.nvtraverse]. *)
let fence t = Pmem.fence (pmem t)

let persist_field t node i =
  Pmem.flush (pmem t) (Heap.field_addr t.heap node i);
  fence t

(* Flush the first and the last line of a node's fields.  That covers
   a node of up to nine fields, which sits on one line or two, but not
   every node: one of ten or more fields can span three lines (four at
   the top levels) and its middle lines stay unflushed, and when the
   key starts a line the header at [node - 8] is on the line before,
   outside the span.  Sizing the span loads the header, so an insert
   pays one costed load the plain discipline does not. *)
let flush_span t node =
  let p = pmem t in
  let line = (Pmem.config p).Nvm.Config.line_size in
  let first = Heap.field_addr t.heap node 0 in
  let last = Heap.field_addr t.heap node (Heap.words_of t.heap node - 1) in
  Pmem.flush p first;
  if last / line <> first / line then Pmem.flush p last

let make_rngs ~num_threads ~seed =
  let master = Rng.create ~seed in
  Array.init num_threads (fun _ -> Rng.split master)

let create heap ?(max_level = default_max_level) ?(op_cycles = default_op_cycles)
    ?(nvtraverse = false) ~num_threads ~seed () =
  if max_level < 1 || max_level > 32 then
    invalid_arg "Lockfree_skiplist.create: max_level out of range";
  (* [random_level] indexes one level generator per thread by tid. *)
  if num_threads < 1 then
    invalid_arg "Lockfree_skiplist.create: num_threads must be >= 1";
  let t =
    { heap; head = Heap.null; max_level; rngs = [||]; op_cycles; nvtraverse }
  in
  let tail = alloc_node t ~key:max_int ~value:0L ~level:max_level in
  for lv = 0 to max_level - 1 do
    Heap.store_field_int heap tail (next_base + lv) Heap.null
  done;
  let head = alloc_node t ~key:min_int ~value:0L ~level:max_level in
  for lv = 0 to max_level - 1 do
    Heap.store_field_int heap head (next_base + lv) tail
  done;
  Heap.set_root heap head;
  let t = { t with head; rngs = make_rngs ~num_threads ~seed } in
  if nvtraverse then begin
    (* The empty structure is durable before any operation runs. *)
    flush_span t tail;
    flush_span t head;
    fence t
  end;
  t

let attach heap ?(op_cycles = default_op_cycles) ?(nvtraverse = false)
    ~num_threads ~seed head =
  if num_threads < 1 then
    invalid_arg "Lockfree_skiplist.attach: num_threads must be >= 1";
  if not (Heap.is_object_start heap head)
     || Heap.kind_of heap head <> node_kind
  then invalid_arg "Lockfree_skiplist.attach: root is not a skip-list node";
  if Heap.load_field_int heap head 0 <> min_int then
    invalid_arg "Lockfree_skiplist.attach: root is not the head sentinel";
  let max_level = Heap.words_of heap head - next_base in
  let rngs = make_rngs ~num_threads ~seed in
  { heap; head; max_level; rngs; op_cycles; nvtraverse }

let random_level t tid =
  let rng = t.rngs.(tid) in
  let rec toss lv =
    if lv >= t.max_level then t.max_level else if Rng.bool rng then toss (lv + 1) else lv
  in
  toss 1

(* Herlihy-Shavit [find]: descend levels keeping, per level, the last
   node with key < [key] ([preds]) and its successor ([succs]); snip any
   marked node encountered.  A failed snip CAS means the picture changed
   under us: restart from the top. *)
let rec find t key ~preds ~succs =
  let rec down pred lv =
    if lv < 0 then true
    else
      let rec scan pred curr =
        let succ_raw = read_next t curr lv in
        if is_marked succ_raw then
          if cas_next t pred lv ~expected:curr ~desired:(unmark succ_raw) then
            scan pred (unmark succ_raw)
          else false
        else if key_of t curr < key then scan curr (unmark succ_raw)
        else begin
          preds.(lv) <- pred;
          succs.(lv) <- curr;
          true
        end
      in
      if scan pred (unmark (read_next t pred lv)) then down preds.(lv) (lv - 1)
      else false
  in
  if down t.head (t.max_level - 1) then ()
  else find t key ~preds ~succs

let find_arrays t key =
  let preds = Array.make t.max_level Heap.null in
  let succs = Array.make t.max_level Heap.null in
  find t key ~preds ~succs;
  (preds, succs)

(* Link the upper levels of a freshly inserted node, helping-friendly:
   abandon a level as soon as the node is found marked or unlinked. *)
let rec link_upper t node level key lv =
  if lv < level then begin
    let preds, succs = find_arrays t key in
    if succs.(0) <> node then () (* deleted or superseded: stop *)
    else
      let cur = read_next t node lv in
      if is_marked cur then ()
      else if
        cur <> succs.(lv)
        && not (cas_next t node lv ~expected:cur ~desired:succs.(lv))
      then link_upper t node level key lv
      else if cas_next t preds.(lv) lv ~expected:succs.(lv) ~desired:node then
        link_upper t node level key (lv + 1)
      else link_upper t node level key lv
  end

(* Insert-or-act: if [key] is present run [on_found] on its node,
   otherwise try to link a fresh node carrying [value].  [on_found]
   returning [false] requests a retry (its CAS lost a race). *)
let rec upsert t tid key ~value ~on_found =
  let preds, succs = find_arrays t key in
  if key_of t succs.(0) = key then begin
    if not (on_found succs.(0)) then upsert t tid key ~value ~on_found
  end
  else begin
    let level = random_level t tid in
    let node = alloc_node t ~key ~value ~level in
    for lv = 0 to level - 1 do
      Heap.store_field_int t.heap node (next_base + lv) succs.(lv)
    done;
    (* NVTraverse's critical update window: persist the initialised
       node before it becomes reachable, publish it with one CAS, then
       persist the bottom-level link that made it reachable. *)
    if t.nvtraverse then begin
      flush_span t node;
      fence t
    end;
    if cas_next t preds.(0) 0 ~expected:succs.(0) ~desired:node then begin
      if t.nvtraverse then persist_field t preds.(0) next_base;
      link_upper t node level key 1
    end
    else begin
      (* Lost the race; the node was never published, so reclaim it
         immediately rather than waiting for the recovery GC. *)
      Heap.free t.heap node;
      upsert t tid key ~value ~on_found
    end
  end

let set t ~tid ~key ~value =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  upsert t tid key ~value ~on_found:(fun node ->
      (* A single word store is atomic; overwrite needs no CAS. *)
      Heap.store_field t.heap node 1 value;
      if t.nvtraverse then persist_field t node 1;
      true)

let incr t ~tid ~key ~by =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  upsert t tid key ~value:by ~on_found:(fun node ->
      let old = value_of t node in
      let ok =
        Heap.cas_field t.heap node 1 ~expected:old ~desired:(Int64.add old by)
      in
      if ok && t.nvtraverse then persist_field t node 1;
      ok)

(* Wait-free membership test: traverse without snipping. *)
let get t ~tid:_ ~key =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let rec down pred lv curr_final =
    if lv < 0 then curr_final
    else
      let rec scan pred curr =
        let succ_raw = read_next t curr lv in
        if is_marked succ_raw then scan pred (unmark succ_raw)
        else if key_of t curr < key then scan curr (unmark succ_raw)
        else (pred, curr)
      in
      let pred, curr = scan pred (unmark (read_next t pred lv)) in
      down pred (lv - 1) curr
  in
  let curr = down t.head (t.max_level - 1) Heap.null in
  if curr <> Heap.null && key_of t curr = key then Some (value_of t curr)
  else None

let remove t ~tid:_ ~key =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let _, succs = find_arrays t key in
  if key_of t succs.(0) <> key then false
  else begin
    let node = succs.(0) in
    let level = level_of t node in
    (* Mark top-down; the bottom-level mark is the linearisation point. *)
    for lv = level - 1 downto 1 do
      let rec mark_level () =
        let nxt = read_next t node lv in
        if not (is_marked nxt) then
          if not (cas_next t node lv ~expected:nxt ~desired:(with_mark nxt))
          then mark_level ()
      in
      mark_level ()
    done;
    let rec bottom () =
      let nxt = read_next t node 0 in
      if is_marked nxt then false
      else if cas_next t node 0 ~expected:nxt ~desired:(with_mark nxt) then begin
        (* NVTraverse persists the mark before reporting success; the
           physical unlink that follows is index maintenance. *)
        if t.nvtraverse then persist_field t node next_base;
        ignore (find_arrays t key);  (* physically unlink *)
        true
      end
      else bottom ()
    in
    bottom ()
  end

let ops t =
  {
    Map_intf.name =
      (if t.nvtraverse then "nvtraverse-skiplist" else "lockfree-skiplist");
    set = set t;
    get = get t;
    incr = incr t;
    remove = remove t;
  }

let set_plain t ~key ~value = set t ~tid:0 ~key ~value

(* A damaged image can close a cycle through a level-0 link.  No
   acyclic list visits more nodes than the allocated heap holds: every
   object is a header and at least one word, and the heap's end is a
   volatile field, so the bound costs no load. *)
let fold_plain heap ~root f acc =
  if not (Heap.is_object_start heap root) then
    raise (Heap.Corrupt "skip list head is not an object");
  let limit = (Heap.end_addr heap - Heap.start_addr heap) / 16 in
  let rec walk node visited acc =
    if node = Heap.null then acc
    else if not (Heap.is_object_start heap node) then
      raise (Heap.Corrupt (Printf.sprintf "skip node %d invalid" node))
    else if visited > limit then
      raise (Heap.Corrupt "skip list level 0 has a cycle")
    else
      let key = Heap.load_field_int heap node 0 in
      if key = max_int then acc (* tail sentinel *)
      else
        let next_raw = Heap.load_field_int heap node next_base in
        let acc =
          if is_marked next_raw || key = min_int then acc
          else f key (Heap.load_field heap node 1) acc
        in
        walk (next_raw land lnot 1) (visited + 1) acc
  in
  walk root 0 acc

let size_plain heap ~root = fold_plain heap ~root (fun _ _ n -> n + 1) 0

let check_plain heap ~root =
  try
    let last =
      fold_plain heap ~root
        (fun key _ last ->
          if key <= last then
            Fmt.failwith "keys not strictly increasing: %d after %d" key last
          else key)
        min_int
    in
    ignore (last : int);
    Ok ()
  with
  | Failure msg -> Error msg
  | Heap.Corrupt msg -> Error msg
