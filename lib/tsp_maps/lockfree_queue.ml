module Heap = Pheap.Heap
module Kind = Pheap.Kind

(* Node: [0] = value (raw), [1] = next (pointer). *)
let node_kind =
  Kind.register ~kind:22 ~name:"queue_node"
    ~scan:(fun ~load ~addr ~words:_ ~emit ->
      let next = load (addr + 8) in
      if next <> 0 then emit next)
    ()

(* Header: [0] = head (pointer to the dummy node), [1] = tail. *)
let header_kind =
  Kind.register ~kind:23 ~name:"queue_header"
    ~scan:(fun ~load ~addr ~words:_ ~emit ->
      let head = load addr in
      let tail = load (addr + 8) in
      (* Tail first: the eager mark visits children in emission order,
         and its pinned order visits the tail first. *)
      if tail <> 0 then emit tail;
      if head <> 0 then emit head)
    ()

type t = { heap : Heap.t; header : Heap.addr }

let root t = t.header

let alloc_node t value =
  let node = Heap.alloc t.heap ~kind:node_kind ~words:2 in
  Heap.store_field t.heap node 0 value;
  Heap.store_field_int t.heap node 1 Heap.null;
  node

let create heap ?(set_root = true) () =
  let header = Heap.alloc heap ~kind:header_kind ~words:2 in
  let t = { heap; header } in
  let dummy = alloc_node t 0L in
  Heap.store_field_int heap header 0 dummy;
  Heap.store_field_int heap header 1 dummy;
  if set_root then Heap.set_root heap header;
  t

let attach heap header =
  if not (Heap.is_object_start heap header)
     || Heap.kind_of heap header <> header_kind
  then invalid_arg "Lockfree_queue.attach: not a queue header";
  { heap; header }

let head t = Heap.load_field_int t.heap t.header 0
let tail t = Heap.load_field_int t.heap t.header 1
let next t node = Heap.load_field_int t.heap node 1
let value t node = Heap.load_field t.heap node 0

let cas_head t ~expected ~desired =
  Heap.cas_field_int t.heap t.header 0 ~expected ~desired

let cas_tail t ~expected ~desired =
  Heap.cas_field_int t.heap t.header 1 ~expected ~desired

let cas_next t node ~expected ~desired =
  Heap.cas_field_int t.heap node 1 ~expected ~desired

let enqueue t v =
  let node = alloc_node t v in
  let rec attempt () =
    let last = tail t in
    let nxt = next t last in
    if nxt = Heap.null then begin
      if cas_next t last ~expected:Heap.null ~desired:node then
        (* Swing the tail; failure means someone helped us. *)
        ignore (cas_tail t ~expected:last ~desired:node : bool)
      else attempt ()
    end
    else begin
      (* Tail lags: help swing it, then retry. *)
      ignore (cas_tail t ~expected:last ~desired:nxt : bool);
      attempt ()
    end
  in
  attempt ()

let rec dequeue t =
  let first = head t in
  let last = tail t in
  let nxt = next t first in
  if first = last then
    if nxt = Heap.null then None
    else begin
      (* Tail lags behind a concurrent enqueue: help, retry. *)
      ignore (cas_tail t ~expected:last ~desired:nxt : bool);
      dequeue t
    end
  else if nxt = Heap.null then
    (* head <> tail but next not yet visible: another dequeue won the
       race and the snapshot is stale; retry. *)
    dequeue t
  else
    let v = value t nxt in
    if cas_head t ~expected:first ~desired:nxt then
      (* [first] (the old dummy) is now unreachable; the recovery GC
         reclaims it.  Freeing here would invite ABA on the head CAS. *)
      Some v
    else dequeue t

let is_empty t = next t (head t) = Heap.null

let to_list t =
  let rec go node acc =
    if node = Heap.null then List.rev acc
    else go (next t node) (value t node :: acc)
  in
  go (next t (head t)) []

let length t = List.length (to_list t)

let check_plain heap ~root =
  if not (Heap.is_object_start heap root)
     || Heap.kind_of heap root <> header_kind
  then Error "root is not a queue header"
  else begin
    let t = { heap; header = root } in
    let rec walk node seen tail_seen =
      if node = Heap.null then
        if tail_seen then Ok ()
        else Error "tail does not reach the end of the chain"
      else if List.mem node seen then Error "cycle in queue chain"
      else if not (Heap.is_object_start heap node) then
        Error (Printf.sprintf "invalid node at %d" node)
      else walk (next t node) (node :: seen) (tail_seen || node = tail t)
    in
    let h = head t in
    if not (Heap.is_object_start heap h) then Error "invalid head node"
    else
      match walk h [] false with
      | Error _ as e -> e
      | Ok () ->
          (* The helping invariant: tail is the last or second-to-last. *)
          let last = tail t in
          if next t last = Heap.null || next t (next t last) = Heap.null then
            Ok ()
          else Error "tail lags by more than one node"
  end
