(* The hash-set mark phases, retained as an executable reference.  The
   production [Pheap.Heap_gc] marks into a [Pheap.Markset], one bit per
   heap word; this module keeps the eager DFS mark and the streamed
   discovery as they were when both marked into a growing [Nvm.Intset],
   rebuilt from public [Heap]/[Kind]/[Layout]/[Pmem] calls, so a
   property test can run both on the same damaged heaps and demand the
   same marks, dangling and unscannable counts, reasons and streamed
   line bill.  [strip_tag] and [Istack] are copied from [Heap_gc], which
   does not export them; discovery keeps its chunked merge with the
   sequential fan-out.  Do not "improve" this file: its value is that
   it is the old code. *)

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

type discovery = {
  d_marks : Nvm.Intset.t;
  d_dangling : int;
  d_unscannable : int;
  d_reasons : string list;  (* oldest first *)
  d_lines : int;  (* streamed bill: root line + lines spanned by every object *)
}

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

let chunk_size = 2048

type chunk_out = {
  mutable cand : int array;
  mutable cand_n : int;
  mutable c_dangling : int;
  mutable c_lines : int;
  mutable c_unscannable : int;
  mutable c_reasons : string list;
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

let discover heap =
  let pmem = Heap.pmem heap in
  let marks = Nvm.Intset.create ~capacity:4096 () in
  let dangling = ref 0 in
  let unscannable = ref 0 in
  let reasons = ref [] in
  let lines = ref 1 in
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
    List.iter
      (fun f -> f ())
      (List.init n_chunks (fun c () ->
           run_chunk heap objs (c * chunk_size)
             (min n ((c + 1) * chunk_size))
             outs.(c)));
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
