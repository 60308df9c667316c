module Heap = Pheap.Heap
module Kind = Pheap.Kind
module Rt = Atlas.Runtime

(* Node layout: [0] = key, [1] = next, [2 .. 2+value_words) = value.
   Values are [value_words] words wide (1 by default); writing a wide
   value is a genuine multi-store critical section, the kind of update
   that can tear without rollback even when every store is durable. *)
let node_kind =
  Kind.register ~kind:16 ~name:"hash_node"
    ~scan:(fun ~load ~addr ~words:_ ~emit ->
      let next = load (addr + 8) in
      if next <> 0 then emit next)
    ()

(* Header layout: [0] = bucket count, [1] = table address,
   [2] = value width in words. *)
let header_kind =
  Kind.register ~kind:17 ~name:"hash_header"
    ~scan:(fun ~load ~addr ~words:_ ~emit ->
      let table = load (addr + 8) in
      if table <> 0 then emit table)
    ()

type t = {
  heap : Heap.t;
  atlas : Rt.t;
  header : Heap.addr;
  table : Heap.addr;
  n_buckets : int;
  value_words : int;
  mutexes : Rt.amutex array;
  op_cycles : int;
      (* charged per operation: hash computation, call overhead and the
         per-access CPU work a flat word-level simulation underestimates *)
}

let default_op_cycles = 30

let hash key n =
  let h = (key * 0x2545F4914F6CDD1D) lxor (key lsr 29) in
  (h land max_int) mod n

let root t = t.header
let n_buckets t = t.n_buckets

(* Moderate-grain locking, as in the paper (§5.1): one mutex per 1000
   buckets.  A constant, so a restart regroups the buckets exactly as
   the crashed run did. *)
let buckets_per_mutex = 1000

let make_mutexes atlas sched ~n_buckets =
  let n = (n_buckets + buckets_per_mutex - 1) / buckets_per_mutex in
  Array.init n (fun _ -> Rt.make_mutex atlas sched)

let create heap ~atlas ~sched ~n_buckets ?(op_cycles = default_op_cycles)
    ?(value_words = 1) () =
  if n_buckets <= 0 then invalid_arg "Chained_hashmap.create: no buckets";
  if value_words < 1 then invalid_arg "Chained_hashmap.create: value_words";
  let header = Heap.alloc heap ~kind:header_kind ~words:3 in
  let table = Heap.alloc heap ~kind:Kind.all_pointers ~words:n_buckets in
  for b = 0 to n_buckets - 1 do
    Heap.store_field heap table b 0L
  done;
  Heap.store_field_int heap header 0 n_buckets;
  Heap.store_field_int heap header 1 table;
  Heap.store_field_int heap header 2 value_words;
  Heap.set_root heap header;
  {
    heap;
    atlas;
    header;
    table;
    n_buckets;
    value_words;
    mutexes = make_mutexes atlas sched ~n_buckets;
    op_cycles;
  }

let attach heap ~atlas ~sched ?(op_cycles = default_op_cycles) header =
  if not (Heap.is_object_start heap header)
     || Heap.kind_of heap header <> header_kind
  then invalid_arg "Chained_hashmap.attach: root is not a hash map header";
  let n_buckets = Heap.load_field_int heap header 0 in
  let table = Heap.load_field_int heap header 1 in
  let value_words = Heap.load_field_int heap header 2 in
  {
    heap;
    atlas;
    header;
    table;
    n_buckets;
    value_words;
    mutexes = make_mutexes atlas sched ~n_buckets;
    op_cycles;
  }

(* Chain search with plain loads: reads need no instrumentation, and the
   caller already holds the bucket's mutex.  The node holding [key], or
   [Heap.null]: a top-level loop returning an address builds neither a
   closure nor an option per search. *)
let rec find_from t key node =
  if node = Heap.null then Heap.null
  else if Heap.load_field_int t.heap node 0 = key then node
  else find_from t key (Heap.load_field_int t.heap node 1)

let find_node t bucket key =
  find_from t key (Heap.load_field_int t.heap t.table bucket)

let mutex_for t bucket = t.mutexes.(bucket / buckets_per_mutex)

(* [values] supplies each value word; missing words are zeroed. *)
let insert_locked t ctx bucket ~key ~values =
  let head = Heap.load_field t.heap t.table bucket in
  let node = Heap.alloc t.heap ~kind:node_kind ~words:(2 + t.value_words) in
  Rt.store_field t.atlas ctx node 0 (Int64.of_int key);
  Rt.store_field t.atlas ctx node 1 head;
  for w = 0 to t.value_words - 1 do
    Rt.store_field t.atlas ctx node (2 + w) (values w)
  done;
  Rt.store_field t.atlas ctx t.table bucket (Int64.of_int node)

let set t ~tid ~key ~value =
  let ctx = Rt.thread_ctx t.atlas ~tid in
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let b = hash key t.n_buckets in
  Rt.with_lock t.atlas ctx (mutex_for t b) (fun () ->
      let node = find_node t b key in
      if node <> Heap.null then Rt.store_field t.atlas ctx node 2 value
      else insert_locked t ctx b ~key ~values:(fun _ -> value))

let get t ~tid ~key =
  let ctx = Rt.thread_ctx t.atlas ~tid in
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let b = hash key t.n_buckets in
  Rt.with_lock t.atlas ctx (mutex_for t b) (fun () ->
      let node = find_node t b key in
      if node <> Heap.null then Some (Heap.load_field t.heap node 2) else None)

let incr t ~tid ~key ~by =
  let ctx = Rt.thread_ctx t.atlas ~tid in
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let b = hash key t.n_buckets in
  Rt.with_lock t.atlas ctx (mutex_for t b) (fun () ->
      let node = find_node t b key in
      if node <> Heap.null then begin
        let v = Heap.load_field t.heap node 2 in
        Rt.store_field t.atlas ctx node 2 (Int64.add v by)
      end
      else insert_locked t ctx b ~key ~values:(fun _ -> by))

let remove t ~tid ~key =
  let ctx = Rt.thread_ctx t.atlas ~tid in
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let b = hash key t.n_buckets in
  Rt.with_lock t.atlas ctx (mutex_for t b) (fun () ->
      let rec walk prev node =
        if node = Heap.null then false
        else
          let next = Heap.load_field t.heap node 1 in
          if Heap.load_field_int t.heap node 0 = key then begin
            (match prev with
            | None -> Rt.store_field t.atlas ctx t.table b next
            | Some p -> Rt.store_field t.atlas ctx p 1 next);
            Heap.free_via t.heap node ~store:(fun a v ->
                Rt.store t.atlas ctx a v);
            true
          end
          else walk (Some node) (Int64.to_int next)
      in
      walk None (Heap.load_field_int t.heap t.table b))

let transfer t ~tid ~debit ~credit ~amount =
  let ctx = Rt.thread_ctx t.atlas ~tid in
  let pmem = Heap.pmem t.heap in
  Nvm.Pmem.charge pmem (2 * t.op_cycles);
  let b1 = hash debit t.n_buckets and b2 = hash credit t.n_buckets in
  let m1 = mutex_for t b1 and m2 = mutex_for t b2 in
  (* Acquire in mutex-id order so concurrent transfers cannot deadlock;
     the two stores then form one failure-atomic outermost section. *)
  let outer, inner =
    if Rt.mutex_id m1 <= Rt.mutex_id m2 then (m1, m2) else (m2, m1)
  in
  let update node delta =
    let v = Heap.load_field t.heap node 2 in
    Rt.store_field t.atlas ctx node 2 (Int64.add v delta)
  in
  let body () =
    let from_node = find_node t b1 debit in
    let to_node = find_node t b2 credit in
    if from_node = Heap.null || to_node = Heap.null then false
    else if Heap.load_field t.heap from_node 2 < amount then false
    else begin
      update from_node (Int64.neg amount);
      update to_node amount;
      true
    end
  in
  Rt.with_lock t.atlas ctx outer (fun () ->
      if Rt.mutex_id outer = Rt.mutex_id inner then body ()
      else Rt.with_lock t.atlas ctx inner body)

let ops t =
  {
    Map_intf.name = "mutex-hashmap/" ^ Atlas.Mode.to_string (Rt.mode t.atlas);
    set = set t;
    get = get t;
    incr = incr t;
    remove = remove t;
  }

let set_plain t ~key ~value =
  let b = hash key t.n_buckets in
  let node = find_node t b key in
  if node <> Heap.null then Heap.store_field t.heap node 2 value
  else begin
    let head = Heap.load_field t.heap t.table b in
    let node = Heap.alloc t.heap ~kind:node_kind ~words:(2 + t.value_words) in
    Heap.store_field t.heap node 0 (Int64.of_int key);
    Heap.store_field t.heap node 1 head;
    Heap.store_field t.heap node 2 value;
    for w = 1 to t.value_words - 1 do
      Heap.store_field t.heap node (2 + w) 0L
    done;
    Heap.store_field t.heap t.table b (Int64.of_int node)
  end

(* [visit] every node of the chain starting at [node].  A damaged
   image can close a cycle through a next link.  No acyclic chain
   visits more nodes than the allocated heap holds: every object is a
   header and at least one word, and the heap's end is a volatile
   field, so the bound costs no load. *)
let walk_chain heap node visit =
  let limit = (Heap.end_addr heap - Heap.start_addr heap) / 16 in
  let rec walk node visited =
    if node <> Heap.null then begin
      if visited > limit then raise (Heap.Corrupt "hash chain has a cycle");
      visit node;
      walk (Heap.load_field_int heap node 1) (visited + 1)
    end
  in
  walk node 0

let fold_plain heap ~root f acc =
  let n_buckets = Heap.load_field_int heap root 0 in
  let table = Heap.load_field_int heap root 1 in
  let acc = ref acc in
  let visit node =
    let key = Heap.load_field_int heap node 0 in
    let value = Heap.load_field heap node 2 in
    acc := f key value !acc
  in
  for b = 0 to n_buckets - 1 do
    walk_chain heap (Heap.load_field_int heap table b) visit
  done;
  !acc

let size_plain heap ~root = fold_plain heap ~root (fun _ _ n -> n + 1) 0

let value_words t = t.value_words

let set_wide t ~tid ~key ~values =
  if Array.length values <> t.value_words then
    invalid_arg "Chained_hashmap.set_wide: wrong width";
  let ctx = Rt.thread_ctx t.atlas ~tid in
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let b = hash key t.n_buckets in
  Rt.with_lock t.atlas ctx (mutex_for t b) (fun () ->
      let node = find_node t b key in
      if node <> Heap.null then
        (* The multi-store update Atlas exists for: interrupting this
           loop mid-way tears the value unless the section rolls back. *)
        for w = 0 to t.value_words - 1 do
          Rt.store_field t.atlas ctx node (2 + w) values.(w)
        done
      else insert_locked t ctx b ~key ~values:(fun w -> values.(w)))

let get_wide t ~tid ~key =
  let ctx = Rt.thread_ctx t.atlas ~tid in
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  let b = hash key t.n_buckets in
  Rt.with_lock t.atlas ctx (mutex_for t b) (fun () ->
      let node = find_node t b key in
      if node <> Heap.null then
        Some
          (Array.init t.value_words (fun w -> Heap.load_field t.heap node (2 + w)))
      else None)

let fold_wide_plain heap ~root f acc =
  let n_buckets = Heap.load_field_int heap root 0 in
  let table = Heap.load_field_int heap root 1 in
  let width = Heap.load_field_int heap root 2 in
  let acc = ref acc in
  let visit node =
    let key = Heap.load_field_int heap node 0 in
    let values =
      Array.init width (fun w -> Heap.load_field heap node (2 + w))
    in
    acc := f key values !acc
  in
  for b = 0 to n_buckets - 1 do
    walk_chain heap (Heap.load_field_int heap table b) visit
  done;
  !acc
