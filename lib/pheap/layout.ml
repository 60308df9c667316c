let word_size = 8
let header_magic = 0xA5
let heap_magic = 0x5453504845415031L (* "TSPHEAP1" big-endian-ish tag *)
let header_bytes = 64
let root_offset = 8
let heap_end_offset = 16
let heap_size_offset = 24
let kind_free = 0

let[@inline never] bad_header ~kind ~words =
  if kind < 0 || kind > 0xff then Fmt.invalid_arg "Layout: bad kind %d" kind
  else Fmt.invalid_arg "Layout: bad object size %d words" words

(* Inlined into each header store, so the word reaches [Pmem.store]
   unboxed; the range checks' failure is a cold call. *)
let[@inline] encode_header ~kind ~words =
  if kind < 0 || kind > 0xff || words <= 0 || words > 0x7fffffff then
    bad_header ~kind ~words;
  Int64.logor
    (Int64.shift_left (Int64.of_int header_magic) 56)
    (Int64.logor
       (Int64.shift_left (Int64.of_int kind) 48)
       (Int64.of_int words))

(* Inlined, so a header read into an [int64] local is decoded in
   registers: a call would box the word (bit 63 is part of the magic
   byte, so no [int] holds it). *)
let[@inline] header_kind h =
  Int64.to_int (Int64.shift_right_logical h 48) land 0xff

let[@inline] header_words h = Int64.to_int (Int64.logand h 0xffffffffL)

let[@inline] header_valid h =
  Int64.to_int (Int64.shift_right_logical h 56) land 0xff = header_magic
  && header_words h > 0

(* Unboxed decoders over [Int64.to_int] of a header word already known
   to be valid (the conversion drops bit 63, which neither field uses). *)

let[@inline] header_kind_i h = (h lsr 48) land 0xff
let[@inline] header_words_i h = h land 0xffffffff
let[@inline] obj_header_addr addr = addr - word_size
let obj_total_bytes ~words = (words + 1) * word_size
