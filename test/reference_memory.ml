(* The flat two-[Bytes] memory model, retained verbatim as an
   executable reference.  The production [Nvm.Memory] now stores each
   image as an array of lazily materialised pages that start out as one
   shared zero page; this module keeps the original region-sized images
   so a property test can drive both with the same random operation
   sequences and demand identical words and durable snapshots.  Only the
   test-only helpers the production module no longer has
   ([promote_all], [blit_string], [diff_lines]) are left out.  Do not
   "improve" this file: its value is that it is the old code. *)

type t = { current : Bytes.t; durable : Bytes.t; size : int }

let create ~size =
  { current = Bytes.make size '\000'; durable = Bytes.make size '\000'; size }

let size t = t.size

(* Word access validation is a single fused branch on the fast path; the
   cold continuation reconstructs which rule was broken.  Bounds and
   alignment are established here once per access, after which the raw
   [unsafe_*] primitives below need no further checks — in particular no
   second bounds check inside [Bytes.get_int64_le]. *)

let[@inline never] check_fail t addr =
  if addr land 7 <> 0 then
    Fmt.invalid_arg "Memory: word address %d not 8-byte aligned" addr
  else
    Fmt.invalid_arg "Memory: word address %d out of bounds (size %d)" addr
      t.size

let[@inline] check t addr =
  (* [addr lor (t.size - 8 - addr)] is negative iff [addr < 0] or
     [addr + 8 > t.size]. *)
  if addr lor (t.size - 8 - addr) < 0 || addr land 7 <> 0 then check_fail t addr

(* Raw unaligned word primitives (the same ones the stdlib builds
   [Bytes.get_int64_le] from, minus its bounds check).  Results and
   operands stay unboxed as long as they flow directly between int64
   primitives within one function, which every user below ensures. *)
external unsafe_get_64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] unsafe_get_int64_le b i =
  if Sys.big_endian then swap64 (unsafe_get_64 b i) else unsafe_get_64 b i

let[@inline] unsafe_set_int64_le b i v =
  if Sys.big_endian then unsafe_set_64 b i (swap64 v) else unsafe_set_64 b i v

let load t addr =
  check t addr;
  unsafe_get_int64_le t.current addr

let store t addr v =
  check t addr;
  unsafe_set_int64_le t.current addr v

(* Int-typed word access: [load_int t a = Int64.to_int (load t a)] and
   [store_int t a v] writes the same bytes as [store t a (Int64.of_int v)],
   but neither boxes an [int64] — the conversions happen between
   primitives inside one function, so the native compiler keeps the wide
   value in a register.  These carry the simulator's hot loops. *)

let load_int t addr =
  check t addr;
  Int64.to_int (unsafe_get_int64_le t.current addr)

let store_int t addr v =
  check t addr;
  unsafe_set_int64_le t.current addr (Int64.of_int v)

(* 64-bit compare-and-swap against an int-expressible expected value,
   without boxing.  [actual = Int64.of_int expected] iff the low 63 bits
   match ([Int64.to_int actual = expected]) and bit 63 equals bit 62
   (i.e. the top two bits are 00 or 11, as sign extension produces). *)
let cas_int t addr ~expected ~desired =
  check t addr;
  let actual = unsafe_get_int64_le t.current addr in
  let top2 = Int64.to_int (Int64.shift_right actual 62) land 3 in
  if Int64.to_int actual = expected && (top2 = 0 || top2 = 3) then begin
    unsafe_set_int64_le t.current addr (Int64.of_int desired);
    true
  end
  else false

let load_durable t addr =
  check t addr;
  unsafe_get_int64_le t.durable addr

let write_back t ~line_addr ~len =
  Bytes.blit t.current line_addr t.durable line_addr len

let write_back_word t addr =
  check t addr;
  Bytes.blit t.current addr t.durable addr 8

let flip_durable_bit t ~addr ~bit =
  check t addr;
  if bit < 0 || bit > 63 then
    Fmt.invalid_arg "Memory.flip_durable_bit: bit %d out of range" bit;
  let v = Bytes.get_int64_le t.durable addr in
  Bytes.set_int64_le t.durable addr (Int64.logxor v (Int64.shift_left 1L bit))

let discard_current t = Bytes.blit t.durable 0 t.current 0 t.size
let durable_snapshot t = Bytes.to_string t.durable
