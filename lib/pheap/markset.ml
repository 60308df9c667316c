(* Bit [i land 7] of byte [i lsr 3] is the word [start + 8 i].  An
   aligned address in [start, stop) has a word index below the span's
   word count, so the byte reads stay in bounds. *)

type t = { start : int; stop : int; bits : Bytes.t; mutable cardinal : int }

let create heap =
  let start = Heap.start_addr heap and stop = Heap.end_addr heap in
  let words = (stop - start) / Layout.word_size in
  { start; stop; bits = Bytes.make ((words + 7) / 8) '\000'; cardinal = 0 }

let[@inline] in_span t a = a land 7 = 0 && a >= t.start && a < t.stop

let mem t a =
  in_span t a
  &&
  let i = (a - t.start) lsr 3 in
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t a =
  if not (in_span t a) then
    Fmt.invalid_arg "Markset.add: %d is not a word of [%d, %d)" a t.start
      t.stop;
  let i = (a - t.start) lsr 3 in
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if byte land bit <> 0 then false
  else begin
    Bytes.set t.bits (i lsr 3) (Char.unsafe_chr (byte lor bit));
    t.cardinal <- t.cardinal + 1;
    true
  end

let cardinal t = t.cardinal
