type addr = int

type t = {
  pmem : Nvm.Pmem.t;
  base : int;
  size : int;
  freelist : Freelist.t;
  mutable heap_end : int;  (* volatile mirror of the persistent word *)
}

let null = 0

exception Out_of_memory
exception Corrupt of string

let debug_checks = ref false
let set_debug_checks b = debug_checks := b

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

let pmem t = t.pmem
let base t = t.base
let start_addr t = t.base + Layout.header_bytes
let end_addr t = t.heap_end
let capacity_end t = t.base + t.size

let persist_heap_end t =
  Nvm.Pmem.store_int t.pmem (t.base + Layout.heap_end_offset) t.heap_end

let create pmem ~base ~size =
  if base land 7 <> 0 then invalid_arg "Heap.create: base must be aligned";
  if size < Layout.header_bytes + 64 then
    invalid_arg "Heap.create: size too small";
  let t = { pmem; base; size; freelist = Freelist.create (); heap_end = 0 } in
  Nvm.Pmem.store pmem base Layout.heap_magic;
  Nvm.Pmem.store_int pmem (base + Layout.root_offset) null;
  Nvm.Pmem.store_int pmem (base + Layout.heap_size_offset) size;
  t.heap_end <- start_addr t;
  persist_heap_end t;
  (* A freshly formatted heap is durable by definition: flush the header
     line so even a non-TSP crash before the first operation recovers. *)
  Nvm.Pmem.flush pmem base;
  Nvm.Pmem.fence pmem;
  t

let attach pmem ~base ~size =
  let magic = Nvm.Pmem.load pmem base in
  if not (Int64.equal magic Layout.heap_magic) then
    corrupt "heap magic mismatch at %d: %Lx" base magic;
  let persisted_size = Nvm.Pmem.load_int pmem (base + Layout.heap_size_offset) in
  if persisted_size <> size then
    corrupt "heap size mismatch: attached with %d, formatted with %d" size
      persisted_size;
  let heap_end = Nvm.Pmem.load_int pmem (base + Layout.heap_end_offset) in
  if heap_end < base + Layout.header_bytes || heap_end > base + size then
    corrupt "heap_end %d out of range" heap_end;
  if heap_end land 7 <> 0 then corrupt "heap_end %d misaligned" heap_end;
  { pmem; base; size; freelist = Freelist.create (); heap_end }

let get_root t = Nvm.Pmem.load_int t.pmem (t.base + Layout.root_offset)
let set_root t a = Nvm.Pmem.store_int t.pmem (t.base + Layout.root_offset) a

let contains t a =
  a land 7 = 0 && a >= start_addr t + Layout.word_size && a < t.heap_end

let peek_header t a =
  Nvm.Pmem.peek t.pmem (Layout.obj_header_addr a)

let is_object_start t a =
  contains t a
  &&
  let h = peek_header t a in
  Layout.header_valid h && Layout.header_kind h <> Layout.kind_free

let load_header t a = Nvm.Pmem.load t.pmem (Layout.obj_header_addr a)

(* The same costed load as [load_header], read unboxed: kind and size
   never use bit 63, which [load_int] drops. *)
let load_header_int t a = Nvm.Pmem.load_int t.pmem (Layout.obj_header_addr a)
let kind_of t a = Layout.header_kind_i (load_header_int t a)
let words_of t a = Layout.header_words_i (load_header_int t a)

let write_header t a ~kind ~words =
  Nvm.Pmem.store t.pmem (Layout.obj_header_addr a)
    (Layout.encode_header ~kind ~words)

let alloc t ~kind ~words =
  if words <= 0 then invalid_arg "Heap.alloc: words must be positive";
  if kind = Layout.kind_free then invalid_arg "Heap.alloc: kind_free";
  match Freelist.take t.freelist ~words with
  | Some (a, block_words) when block_words = words ->
      write_header t a ~kind ~words;
      a
  | Some (a, block_words) ->
      (* Split: object at the front, remainder becomes a free block. *)
      write_header t a ~kind ~words;
      let rem_addr = a + ((words + 1) * Layout.word_size) in
      let rem_words = block_words - words - 1 in
      write_header t rem_addr ~kind:Layout.kind_free ~words:rem_words;
      Freelist.add t.freelist ~addr:rem_addr ~words:rem_words;
      a
  | None ->
      let a = t.heap_end + Layout.word_size in
      let new_end = a + (words * Layout.word_size) in
      if new_end > capacity_end t then raise Out_of_memory;
      (* Reserve the span in the volatile bump pointer before touching
         the device: stores are scheduler yield points, and a concurrent
         allocation must not be handed the same addresses. *)
      t.heap_end <- new_end;
      write_header t a ~kind ~words;
      persist_heap_end t;
      a

let free_via t a ~store =
  if not (contains t a) then Fmt.invalid_arg "Heap.free: bad address %d" a;
  let h = load_header t a in
  if not (Layout.header_valid h) then corrupt "free: invalid header at %d" a;
  if Layout.header_kind h = Layout.kind_free then
    Fmt.invalid_arg "Heap.free: double free at %d" a;
  let words = Layout.header_words h in
  store (Layout.obj_header_addr a)
    (Layout.encode_header ~kind:Layout.kind_free ~words);
  Freelist.add t.freelist ~addr:a ~words

let free t a = free_via t a ~store:(Nvm.Pmem.store t.pmem)

let free_words t = Freelist.total_free_words t.freelist

let reset_allocator t ~free =
  Freelist.clear t.freelist;
  List.iter
    (fun (a, words) ->
      write_header t a ~kind:Layout.kind_free ~words;
      Freelist.add t.freelist ~addr:a ~words)
    free

let check_field t a i =
  if !debug_checks then begin
    let h = peek_header t a in
    if not (Layout.header_valid h) then
      corrupt "field access to non-object %d" a;
    let words = Layout.header_words h in
    if i < 0 || i >= words then
      Fmt.invalid_arg "Heap: field %d out of bounds for %d-word object at %d"
        i words a
  end

let field_addr t a i =
  check_field t a i;
  a + (i * Layout.word_size)

let load_field t a i = Nvm.Pmem.load t.pmem (field_addr t a i)
let store_field t a i v = Nvm.Pmem.store t.pmem (field_addr t a i) v

let cas_field t a i ~expected ~desired =
  Nvm.Pmem.cas t.pmem (field_addr t a i) ~expected ~desired

let load_field_int t a i = Nvm.Pmem.load_int t.pmem (field_addr t a i)
let store_field_int t a i v = Nvm.Pmem.store_int t.pmem (field_addr t a i) v

let cas_field_int t a i ~expected ~desired =
  Nvm.Pmem.cas_int t.pmem (field_addr t a i) ~expected ~desired

let fold_blocks_checked t ~read f =
  let stop = t.heap_end in
  let rec go header_addr =
    if header_addr >= stop then Ok ()
    else begin
      let h = read header_addr in
      if not (Layout.header_valid h) then
        Error
          (header_addr, Fmt.str "invalid block header at %d: %Lx" header_addr h)
      else begin
        let words = Layout.header_words h in
        let a = header_addr + Layout.word_size in
        let next = a + (words * Layout.word_size) in
        if next > stop then
          Error
            ( header_addr,
              Fmt.str "block at %d overruns heap end (%d past %d)" a next stop
            )
        else begin
          f ~addr:a ~kind:(Layout.header_kind h) ~words;
          go next
        end
      end
    end
  in
  go (start_addr t)

let iter_blocks t f =
  match fold_blocks_checked t ~read:(Nvm.Pmem.load t.pmem) f with
  | Ok () -> ()
  | Error (_, msg) -> raise (Corrupt msg)
