module Heap = Pheap.Heap
module Kind = Pheap.Kind
module Rt = Atlas.Runtime

let default_order = 7
let meta_ix = 0
let next_ix = 1
let key_base = 3

(* meta word: bit 0 = leaf flag, bits 1.. = key count. *)
let encode_meta ~leaf ~nkeys = (nkeys lsl 1) lor (if leaf then 1 else 0)
let meta_is_leaf m = m land 1 = 1
let meta_nkeys m = m lsr 1

let node_words ~order = (2 * order) + 4
let order_of_words words = (words - 4) / 2

let node_kind =
  Kind.register ~kind:20 ~name:"btree_node"
    ~scan:(fun ~load ~addr ~words ~emit ->
      let order = order_of_words words in
      let meta = load addr in
      if meta_is_leaf meta then begin
        let next = load (addr + (8 * next_ix)) in
        if next <> 0 then emit next
      end
      else
        (* Last child first: the eager mark visits children in emission
           order, and its pinned order descends right to left. *)
        let nkeys = min (meta_nkeys meta) order in
        for i = nkeys downto 0 do
          let c = load (addr + (8 * (key_base + order + i))) in
          if c <> 0 then emit c
        done)
    ()

let header_kind =
  Kind.register ~kind:21 ~name:"btree_header"
    ~scan:(fun ~load ~addr ~words:_ ~emit ->
      let root = load addr in
      if root <> 0 then emit root)
    ()

type t = {
  heap : Heap.t;
  atlas : Rt.t;
  header : Heap.addr;
  order : int;
  mutex : Rt.amutex;
  op_cycles : int;
}

let default_op_cycles = 40
let root t = t.header
let order t = t.order

(* All tree logic is written once against an abstract store function, so
   the instrumented (Atlas) and plain (setup) paths share the algorithm
   and cannot diverge. *)
type io = {
  heap : Heap.t;
  order : int;
  store : Heap.addr -> int -> int64 -> unit;
}

let load io node i = Heap.load_field io.heap node i
let load_int io node i = Heap.load_field_int io.heap node i
let meta io node = load_int io node meta_ix
let key io node i = load_int io node (key_base + i)
let slot_ix io i = key_base + io.order + i
let slot io node i = load_int io node (slot_ix io i)

let alloc_node io ~leaf =
  let node = Heap.alloc io.heap ~kind:node_kind ~words:(node_words ~order:io.order) in
  io.store node meta_ix (Int64.of_int (encode_meta ~leaf ~nkeys:0));
  io.store node next_ix 0L;
  io.store node 2 0L;
  node

(* Index of the child covering [k]: the count of separators <= k. *)
let child_index io node k =
  let nk = meta_nkeys (meta io node) in
  let rec go i = if i < nk && key io node i <= k then go (i + 1) else i in
  go 0

(* First position in a leaf whose key is >= k. *)
let leaf_pos io node k =
  let nk = meta_nkeys (meta io node) in
  let rec go i = if i < nk && key io node i < k then go (i + 1) else i in
  go 0

(* Split the full [i]-th child of [parent] (which must have room).
   Rewrites dozens of words across three nodes: the canonical large
   critical section. *)
let split_child io parent i =
  let child = slot io parent i in
  let cmeta = meta io child in
  let leaf = meta_is_leaf cmeta in
  let mid = io.order / 2 in
  let right = alloc_node io ~leaf in
  let sep =
    if leaf then begin
      let rk = io.order - mid in
      for j = 0 to rk - 1 do
        io.store right (key_base + j) (load io child (key_base + mid + j));
        io.store right (slot_ix io j) (load io child (slot_ix io (mid + j)))
      done;
      io.store right meta_ix (Int64.of_int (encode_meta ~leaf:true ~nkeys:rk));
      io.store right next_ix (load io child next_ix);
      io.store child next_ix (Int64.of_int right);
      io.store child meta_ix (Int64.of_int (encode_meta ~leaf:true ~nkeys:mid));
      key io right 0
    end
    else begin
      let rk = io.order - mid - 1 in
      for j = 0 to rk - 1 do
        io.store right (key_base + j) (load io child (key_base + mid + 1 + j))
      done;
      for j = 0 to rk do
        io.store right (slot_ix io j) (load io child (slot_ix io (mid + 1 + j)))
      done;
      io.store right meta_ix (Int64.of_int (encode_meta ~leaf:false ~nkeys:rk));
      let s = key io child mid in
      io.store child meta_ix (Int64.of_int (encode_meta ~leaf:false ~nkeys:mid));
      s
    end
  in
  (* Insert the separator and the new child into the parent at [i]. *)
  let pk = meta_nkeys (meta io parent) in
  for j = pk - 1 downto i do
    io.store parent (key_base + j + 1) (load io parent (key_base + j))
  done;
  for j = pk downto i + 1 do
    io.store parent (slot_ix io (j + 1)) (load io parent (slot_ix io j))
  done;
  io.store parent (key_base + i) (Int64.of_int sep);
  io.store parent (slot_ix io (i + 1)) (Int64.of_int right);
  io.store parent meta_ix (Int64.of_int (encode_meta ~leaf:false ~nkeys:(pk + 1)))

(* Insert into a node known not to be full; splits full children on the
   way down (preemptive splitting keeps parents non-full). *)
let rec insert_nonfull io node k ~combine =
  let m = meta io node in
  if meta_is_leaf m then begin
    let nk = meta_nkeys m in
    let pos = leaf_pos io node k in
    if pos < nk && key io node pos = k then
      let old = load io node (slot_ix io pos) in
      io.store node (slot_ix io pos) (combine old)
    else begin
      for j = nk - 1 downto pos do
        io.store node (key_base + j + 1) (load io node (key_base + j));
        io.store node (slot_ix io (j + 1)) (load io node (slot_ix io j))
      done;
      io.store node (key_base + pos) (Int64.of_int k);
      io.store node (slot_ix io pos) (combine 0L);
      io.store node meta_ix (Int64.of_int (encode_meta ~leaf:true ~nkeys:(nk + 1)))
    end
  end
  else begin
    let i = child_index io node k in
    let child = slot io node i in
    if meta_nkeys (meta io child) = io.order then begin
      split_child io node i;
      let i = if key io node i <= k then i + 1 else i in
      insert_nonfull io (slot io node i) k ~combine
    end
    else insert_nonfull io child k ~combine
  end

let insert io header k ~combine =
  let root = Heap.load_field_int io.heap header 0 in
  let root =
    if meta_nkeys (meta io root) = io.order then begin
      let newroot = alloc_node io ~leaf:false in
      io.store newroot (slot_ix io 0) (Int64.of_int root);
      split_child io newroot 0;
      io.store header 0 (Int64.of_int newroot);
      newroot
    end
    else root
  in
  insert_nonfull io root k ~combine

let rec find_leaf io node k =
  let m = meta io node in
  if meta_is_leaf m then node
  else find_leaf io (slot io node (child_index io node k)) k

let lookup io header k =
  let root = Heap.load_field_int io.heap header 0 in
  let leaf = find_leaf io root k in
  let pos = leaf_pos io leaf k in
  if pos < meta_nkeys (meta io leaf) && key io leaf pos = k then
    Some (load io leaf (slot_ix io pos))
  else None

let delete io header k =
  let root = Heap.load_field_int io.heap header 0 in
  let leaf = find_leaf io root k in
  let nk = meta_nkeys (meta io leaf) in
  let pos = leaf_pos io leaf k in
  if pos < nk && key io leaf pos = k then begin
    for j = pos to nk - 2 do
      io.store leaf (key_base + j) (load io leaf (key_base + j + 1));
      io.store leaf (slot_ix io j) (load io leaf (slot_ix io (j + 1)))
    done;
    io.store leaf meta_ix (Int64.of_int (encode_meta ~leaf:true ~nkeys:(nk - 1)));
    true
  end
  else false

(* --- Handles --- *)

let plain_io heap ~order =
  { heap; order; store = (fun node i v -> Heap.store_field heap node i v) }

let atlas_io (t : t) ctx =
  {
    heap = t.heap;
    order = t.order;
    store = (fun node i v -> Rt.store_field t.atlas ctx node i v);
  }

let create heap ~atlas ~sched ?(order = default_order) ?(op_cycles = default_op_cycles) () =
  if order < 3 || order > 31 then invalid_arg "Btree.create: order out of range";
  let header = Heap.alloc heap ~kind:header_kind ~words:2 in
  let io = plain_io heap ~order in
  let leaf = alloc_node io ~leaf:true in
  Heap.store_field_int heap header 0 leaf;
  Heap.store_field_int heap header 1 order;
  Heap.set_root heap header;
  { heap; atlas; header; order; mutex = Rt.make_mutex atlas sched; op_cycles }

let attach heap ~atlas ~sched ?(op_cycles = default_op_cycles) header =
  if not (Heap.is_object_start heap header)
     || Heap.kind_of heap header <> header_kind
  then invalid_arg "Btree.attach: not a B+-tree header";
  let order = Heap.load_field_int heap header 1 in
  { heap; atlas; header; order; mutex = Rt.make_mutex atlas sched; op_cycles }

let locked t ~tid f =
  let ctx = Rt.thread_ctx t.atlas ~tid in
  Nvm.Pmem.charge (Heap.pmem t.heap) t.op_cycles;
  Rt.with_lock t.atlas ctx t.mutex (fun () -> f (atlas_io t ctx))

let set t ~tid ~key ~value =
  locked t ~tid (fun io -> insert io t.header key ~combine:(fun _ -> value))

let get t ~tid ~key = locked t ~tid (fun io -> lookup io t.header key)

let incr t ~tid ~key ~by =
  locked t ~tid (fun io ->
      insert io t.header key ~combine:(fun old -> Int64.add old by))

let remove t ~tid ~key = locked t ~tid (fun io -> delete io t.header key)

let ops t =
  {
    Map_intf.name = "btree/" ^ Atlas.Mode.to_string (Rt.mode t.atlas);
    set = set t;
    get = get t;
    incr = incr t;
    remove = remove t;
  }

let set_plain (t : t) ~key ~value =
  insert (plain_io t.heap ~order:t.order) t.header key ~combine:(fun _ -> value)

(* --- Plain traversal and audit --- *)

let io_of heap ~root =
  let order = Heap.load_field_int heap root 1 in
  plain_io heap ~order

let leftmost_leaf io node =
  let rec go node =
    if meta_is_leaf (meta io node) then node else go (slot io node 0)
  in
  go node

let fold_plain heap ~root f acc =
  let io = io_of heap ~root in
  let tree_root = Heap.load_field_int heap root 0 in
  let rec walk leaf acc =
    if leaf = Heap.null then acc
    else begin
      let nk = meta_nkeys (meta io leaf) in
      let acc = ref acc in
      for j = 0 to nk - 1 do
        acc := f (key io leaf j) (load io leaf (slot_ix io j)) !acc
      done;
      walk (load_int io leaf next_ix) !acc
    end
  in
  walk (leftmost_leaf io tree_root) acc

let size_plain heap ~root = fold_plain heap ~root (fun _ _ n -> n + 1) 0

let height heap ~root =
  let io = io_of heap ~root in
  let rec go node h =
    if meta_is_leaf (meta io node) then h else go (slot io node 0) (h + 1)
  in
  go (Heap.load_field_int heap root 0) 1

let check_plain heap ~root =
  try
    if not (Heap.is_object_start heap root)
       || Heap.kind_of heap root <> header_kind
    then Error "not a B+-tree header"
    else begin
      let io = io_of heap ~root in
      let tree_root = Heap.load_field_int heap root 0 in
      let fail fmt = Fmt.kstr failwith fmt in
      let leaf_depth = ref (-1) in
      let leaves_in_order = ref [] in
      (* Bounds: every key k in a subtree satisfies lo <= k < hi. *)
      let rec check node ~lo ~hi ~depth =
        if not (Heap.is_object_start heap node) then
          fail "invalid node at %d" node;
        let m = meta io node in
        let nk = meta_nkeys m in
        if nk > io.order then fail "node %d overfull (%d keys)" node nk;
        let in_bounds k =
          (match lo with Some l -> k >= l | None -> true)
          && match hi with Some h -> k < h | None -> true
        in
        for j = 0 to nk - 1 do
          let k = key io node j in
          if not (in_bounds k) then fail "key %d out of bounds in node %d" k node;
          if j > 0 && key io node (j - 1) >= k then
            fail "keys not sorted in node %d" node
        done;
        if meta_is_leaf m then begin
          if !leaf_depth = -1 then leaf_depth := depth
          else if !leaf_depth <> depth then
            fail "leaf %d at depth %d, expected %d" node depth !leaf_depth;
          leaves_in_order := node :: !leaves_in_order
        end
        else begin
          if node = tree_root && nk = 0 then
            fail "internal root with no separator";
          for i = 0 to nk do
            let lo_i = if i = 0 then lo else Some (key io node (i - 1)) in
            let hi_i = if i = nk then hi else Some (key io node i) in
            check (slot io node i) ~lo:lo_i ~hi:hi_i ~depth:(depth + 1)
          done
        end
      in
      check tree_root ~lo:None ~hi:None ~depth:0;
      (* The leaf chain must enumerate exactly the descent's leaves. *)
      let expected = List.rev !leaves_in_order in
      let rec chain leaf acc =
        if leaf = Heap.null then List.rev acc else chain (load_int io leaf next_ix) (leaf :: acc)
      in
      let actual = chain (leftmost_leaf io tree_root) [] in
      if expected <> actual then fail "leaf chain disagrees with tree descent";
      (* And the enumerated keys must be globally sorted. *)
      ignore
        (fold_plain heap ~root
           (fun k _ last ->
             if k <= last then fail "leaf chain keys not sorted (%d after %d)" k last;
             k)
           min_int);
      Ok ()
    end
  with
  | Failure msg -> Error msg
  | Heap.Corrupt msg -> Error msg
