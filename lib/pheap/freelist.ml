module Int_table = Nvm.Int_table

type t = {
  buckets : int Stack.t Int_table.t;  (* words -> data addresses *)
  mutable sizes : int list;  (* sorted ascending, distinct *)
  mutable free_words : int;
  mutable blocks : int;
}

let create () =
  { buckets = Int_table.create 32; sizes = []; free_words = 0; blocks = 0 }

let clear t =
  Int_table.reset t.buckets;
  t.sizes <- [];
  t.free_words <- 0;
  t.blocks <- 0

let rec insert_size s = function
  | [] -> [ s ]
  | x :: rest as l ->
      if s < x then s :: l else if s = x then l else x :: insert_size s rest

let add t ~addr ~words =
  let stack =
    match Int_table.find_opt t.buckets words with
    | Some s -> s
    | None ->
        let s = Stack.create () in
        Int_table.add t.buckets words s;
        t.sizes <- insert_size words t.sizes;
        s
  in
  Stack.push addr stack;
  t.free_words <- t.free_words + words;
  t.blocks <- t.blocks + 1

let pop_bucket t size =
  match Int_table.find_opt t.buckets size with
  | None -> None
  | Some stack -> begin
      match Stack.pop_opt stack with
      | None -> None
      | Some addr ->
          if Stack.is_empty stack then begin
            Int_table.remove t.buckets size;
            t.sizes <- List.filter (fun s -> s <> size) t.sizes
          end;
          t.free_words <- t.free_words - size;
          t.blocks <- t.blocks - 1;
          Some (addr, size)
    end

(* Smallest splittable size: needs room for the object plus a free
   remainder of header + >= 1 word.  Top-level, so a [take] builds no
   closure. *)
let rec take_split t words = function
  | [] -> None
  | s :: rest -> if s >= words + 2 then pop_bucket t s else take_split t words rest

(* An empty list answers at once: a heap that has freed nothing yet
   (every fresh one) takes this branch on each [Heap.alloc]. *)
let take t ~words =
  if t.blocks = 0 then None
  else
    match pop_bucket t words with
    | Some _ as r -> r
    | None -> take_split t words t.sizes

let total_free_words t = t.free_words
let block_count t = t.blocks
