module Heap = Pheap.Heap
module Kind = Pheap.Kind
module Pmem = Nvm.Pmem
module Rng = Sched.Sim_rng

let sentinel_levels = 16 (* [attach] reads the height back from the head *)
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
  preds : int array array;
  succs : int array array;
      (* one [find] scratch pair per thread, indexed by tid as [rngs] is:
         a thread runs one operation at a time, so its pair is never
         shared, and a search allocates nothing *)
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

(* A damaged image's head can carry fewer than one level; its pairs are
   then empty, and an update raises [Invalid_argument] as the per-call
   arrays made it do. *)
let make_scratch ~num_threads ~max_level =
  Array.init num_threads (fun _ -> Array.make (Int.max 0 max_level) Heap.null)

let create heap ?(op_cycles = default_op_cycles) ?(nvtraverse = false)
    ~num_threads ~seed () =
  let max_level = sentinel_levels in
  (* [random_level] indexes one level generator per thread by tid. *)
  if num_threads < 1 then
    invalid_arg "Lockfree_skiplist.create: num_threads must be >= 1";
  let t =
    {
      heap;
      head = Heap.null;
      max_level;
      rngs = [||];
      preds = [||];
      succs = [||];
      op_cycles;
      nvtraverse;
    }
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
  let t =
    {
      t with
      head;
      rngs = make_rngs ~num_threads ~seed;
      preds = make_scratch ~num_threads ~max_level;
      succs = make_scratch ~num_threads ~max_level;
    }
  in
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
  {
    heap;
    head;
    max_level;
    rngs = make_rngs ~num_threads ~seed;
    preds = make_scratch ~num_threads ~max_level;
    succs = make_scratch ~num_threads ~max_level;
    op_cycles;
    nvtraverse;
  }

let rec toss rng max_level lv =
  if lv >= max_level then max_level
  else if Rng.bool rng then toss rng max_level (lv + 1)
  else lv

let random_level t tid = toss t.rngs.(tid) t.max_level 1

(* Herlihy-Shavit [find]: descend levels keeping, per level, the last
   node with key < [key] ([preds]) and its successor ([succs]); snip any
   marked node encountered.  A failed snip CAS means the picture changed
   under us: restart from the top.

   The searches are top-level loops over the calling thread's scratch
   pair, not local [let rec]s: under the non-flambda compiler a local
   function closing over the key and the level is a fresh closure on
   every call, one per level per search.  [find_from] scans level [lv]
   from [pred] and [curr], records the level's pair, and goes on at
   [lv - 1] from that level's predecessor. *)
let rec find_from t key preds succs lv pred curr =
  let succ_raw = read_next t curr lv in
  if is_marked succ_raw then
    cas_next t pred lv ~expected:curr ~desired:(unmark succ_raw)
    && find_from t key preds succs lv pred (unmark succ_raw)
  else if key_of t curr < key then
    find_from t key preds succs lv curr (unmark succ_raw)
  else begin
    preds.(lv) <- pred;
    succs.(lv) <- curr;
    lv = 0
    || find_from t key preds succs (lv - 1) pred
         (unmark (read_next t pred (lv - 1)))
  end

(* A head with no level (a damaged image's) leaves nothing to search. *)
let rec find t key preds succs =
  let top = t.max_level - 1 in
  if
    top >= 0
    && not
         (find_from t key preds succs top t.head
            (unmark (read_next t t.head top)))
  then find t key preds succs

(* Link the upper levels of a freshly inserted node, helping-friendly:
   abandon a level as soon as the node is found marked or unlinked. *)
let rec link_upper t preds succs node level key lv =
  if lv < level then begin
    find t key preds succs;
    if succs.(0) <> node then () (* deleted or superseded: stop *)
    else
      let cur = read_next t node lv in
      if is_marked cur then ()
      else if
        cur <> succs.(lv)
        && not (cas_next t node lv ~expected:cur ~desired:succs.(lv))
      then link_upper t preds succs node level key lv
      else if cas_next t preds.(lv) lv ~expected:succs.(lv) ~desired:node then
        link_upper t preds succs node level key (lv + 1)
      else link_upper t preds succs node level key lv
  end

(* What an upsert does to a present key's node: overwrite the value
   ([~incr:false], a single word store is atomic, no CAS needed) or add
   [v] to it with one CAS.  Returning [false] requests a retry (the CAS
   lost a race). *)
let on_found t node ~incr v =
  if incr then begin
    let old = value_of t node in
    let ok =
      Heap.cas_field t.heap node 1 ~expected:old ~desired:(Int64.add old v)
    in
    if ok && t.nvtraverse then persist_field t node 1;
    ok
  end
  else begin
    Heap.store_field t.heap node 1 v;
    if t.nvtraverse then persist_field t node 1;
    true
  end

(* Insert-or-act: if [key] is present run [on_found] on its node,
   otherwise try to link a fresh node carrying [value]. *)
let rec upsert t tid key ~value ~incr =
  let preds = t.preds.(tid) and succs = t.succs.(tid) in
  find t key preds succs;
  if key_of t succs.(0) = key then begin
    if not (on_found t succs.(0) ~incr value) then upsert t tid key ~value ~incr
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
      link_upper t preds succs node level key 1
    end
    else begin
      (* Lost the race; the node was never published, so reclaim it
         immediately rather than waiting for the recovery GC. *)
      Heap.free t.heap node;
      upsert t tid key ~value ~incr
    end
  end

let set t ~tid ~key ~value =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  upsert t tid key ~value ~incr:false

let incr t ~tid ~key ~by =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  upsert t tid key ~value:by ~incr:true

(* The wait-free membership test's descent: [find_from] without the
   snips, so a marked node is stepped over, and without the pairs; it
   returns the level-0 node it stops at. *)
let rec get_from t key lv pred curr =
  let succ_raw = read_next t curr lv in
  if is_marked succ_raw then get_from t key lv pred (unmark succ_raw)
  else if key_of t curr < key then get_from t key lv curr (unmark succ_raw)
  else if lv = 0 then curr
  else get_from t key (lv - 1) pred (unmark (read_next t pred (lv - 1)))

let get t ~tid:_ ~key =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let top = t.max_level - 1 in
  let curr =
    if top < 0 then Heap.null
    else get_from t key top t.head (unmark (read_next t t.head top))
  in
  if curr <> Heap.null && key_of t curr = key then Some (value_of t curr)
  else None

(* Mark [node]'s link at level [lv] unless it already is, retrying a
   CAS that lost to a concurrent update of the link. *)
let rec mark_level t node lv =
  let nxt = read_next t node lv in
  if
    (not (is_marked nxt))
    && not (cas_next t node lv ~expected:nxt ~desired:(with_mark nxt))
  then mark_level t node lv

(* The bottom-level mark, the linearisation point: [false] if another
   remove marked it first. *)
let rec mark_bottom t preds succs key node =
  let nxt = read_next t node 0 in
  if is_marked nxt then false
  else if cas_next t node 0 ~expected:nxt ~desired:(with_mark nxt) then begin
    (* NVTraverse persists the mark before reporting success; the
       physical unlink that follows is index maintenance. *)
    if t.nvtraverse then persist_field t node next_base;
    find t key preds succs (* physically unlink *);
    true
  end
  else mark_bottom t preds succs key node

let remove t ~tid ~key =
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let preds = t.preds.(tid) and succs = t.succs.(tid) in
  find t key preds succs;
  if key_of t succs.(0) <> key then false
  else begin
    let node = succs.(0) in
    (* Mark top-down; the bottom-level mark is the linearisation point. *)
    for lv = level_of t node - 1 downto 1 do
      mark_level t node lv
    done;
    mark_bottom t preds succs key node
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
