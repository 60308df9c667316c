let word_size = 8
let header_magic = 0xA5
let heap_magic = 0x5453504845415031L (* "TSPHEAP1" big-endian-ish tag *)
let header_bytes = 64
let root_offset = 8
let heap_end_offset = 16
let heap_size_offset = 24
let kind_free = 0

let encode_header ~kind ~words =
  if kind < 0 || kind > 0xff then Fmt.invalid_arg "Layout: bad kind %d" kind;
  if words <= 0 || words > 0x7fffffff then
    Fmt.invalid_arg "Layout: bad object size %d words" words;
  Int64.logor
    (Int64.shift_left (Int64.of_int header_magic) 56)
    (Int64.logor
       (Int64.shift_left (Int64.of_int kind) 48)
       (Int64.of_int words))

let header_kind h = Int64.to_int (Int64.shift_right_logical h 48) land 0xff
let header_words h = Int64.to_int (Int64.logand h 0xffffffffL)

let header_valid h =
  Int64.to_int (Int64.shift_right_logical h 56) land 0xff = header_magic
  && header_words h > 0

(* Unboxed decoders over [Int64.to_int] of a header word already known
   to be valid (the conversion drops bit 63, which neither field uses). *)

let header_kind_i h = (h lsr 48) land 0xff
let header_words_i h = h land 0xffffffff

let obj_header_addr addr = addr - word_size
let obj_total_bytes ~words = (words + 1) * word_size
