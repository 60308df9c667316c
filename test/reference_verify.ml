(* The pre-flat heap audit, retained verbatim as an executable
   reference.  The production [Pheap.Heap_gc.verify] now keeps one tag
   byte per heap word and walks with an int stack; this module keeps the
   original [Hashtbl]-of-tuples audit so a property test can run both on
   the same random and damaged heaps and demand the same result: the
   same [Ok], or the same errors in the same order, or the same
   exception.  [strip_tag] and [Istack] are copied from the parent's
   [Heap_gc], which does not export them.  Do not "improve" this file:
   its value is that it is the old code. *)

module Heap = Pheap.Heap
module Kind = Pheap.Kind
module Layout = Pheap.Layout

let strip_tag a = a land lnot 7

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

let verify heap =
  let pmem = Heap.pmem heap in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let peek a = Nvm.Pmem.peek pmem a in
  let peek_int a = Nvm.Pmem.peek_int pmem a in
  (* Pass 1: the block chain must tile the allocated span exactly. *)
  let objects = Hashtbl.create 1024 in
  let rec walk header_addr =
    if header_addr < Heap.end_addr heap then begin
      let h = peek header_addr in
      if not (Layout.header_valid h) then
        err "invalid header at %d: %Lx" header_addr h
      else begin
        let words = Layout.header_words h in
        let kind = Layout.header_kind h in
        let a = header_addr + Layout.word_size in
        let next = a + (words * Layout.word_size) in
        if next > Heap.end_addr heap then
          err "block at %d overruns heap end" a
        else begin
          if kind <> Layout.kind_free then begin
            if not (Kind.is_registered kind) then
              err "object at %d has unregistered kind %d" a kind;
            Hashtbl.replace objects a (kind, words)
          end;
          walk next
        end
      end
    end
  in
  walk (Heap.start_addr heap);
  (* Pass 2: pointers from reachable objects must target valid objects. *)
  if !errors = [] then begin
    let seen = Hashtbl.create 1024 in
    let stack = Stack.create () in
    let emitted = Istack.create () in
    let emit p = Istack.push emitted p in
    let push src a =
      let a = strip_tag a in
      if a <> Heap.null && not (Hashtbl.mem seen a) then
        if Hashtbl.mem objects a then begin
          Hashtbl.replace seen a ();
          Stack.push a stack
        end
        else err "object %d references invalid address %d" src a
    in
    let root = Int64.to_int (peek (Heap.base heap + Layout.root_offset)) in
    push 0 root;
    while not (Stack.is_empty stack) do
      let a = Stack.pop stack in
      match Hashtbl.find_opt objects a with
      | None -> ()
      | Some (kind, words) when Kind.is_registered kind ->
          (* Emissions pushed last to first, as in [mark]. *)
          Istack.clear emitted;
          Kind.scan_object ~kind ~load:peek_int ~addr:a ~words ~emit;
          while not (Istack.is_empty emitted) do
            push a (Istack.pop emitted)
          done
      | Some _ -> ()
    done
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
