(* Each image is an array of fixed-size pages.  A page nobody has
   written is the one shared [zero_page], so a fresh region costs two
   pointer arrays instead of two zero-filled region-sized buffers, and a
   run pays only for the pages it touches.  [zero_page] is never written:
   every writer obtains its page through [wr], which swaps in a private
   page first.  Pages are whole even when [size] is not a multiple of
   [page_size]; the bytes past [size] in the last page are unreachable,
   because every access is bounds-checked against [size]. *)

open Sched.Int_compare

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

type t = { current : Bytes.t array; durable : Bytes.t array; size : int }

let create ~size =
  if size < 0 then Fmt.invalid_arg "Memory.create: negative size %d" size;
  let pages = (size + page_mask) lsr page_bits in
  {
    current = Array.make pages zero_page;
    durable = Array.make pages zero_page;
    size;
  }

let size t = t.size

(* A page is [page_size] bytes = 512 words, above the minor heap's
   largest block, so materialising one allocates on the major heap and
   never a minor word. *)
let[@inline never] materialise pages i =
  let p = Bytes.make page_size '\000' in
  Array.unsafe_set pages i p;
  p

(* The page holding [addr], made private to [pages] if it was still the
   zero page.  [addr] must already be known to be in bounds. *)
let[@inline] wr pages addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get pages i in
  if p == zero_page then materialise pages i else p

(* Word access validation is a single fused branch on the fast path; the
   cold continuation reconstructs which rule was broken.  Bounds and
   alignment are established here once per access, after which the page
   index is in range, the word lies inside its page (pages are a whole
   number of aligned words), and the raw [unsafe_*] primitives below
   need no further checks — in particular no second bounds check inside
   [Bytes.get_int64_le]. *)

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

let[@inline] get pages addr =
  unsafe_get_int64_le
    (Array.unsafe_get pages (addr lsr page_bits))
    (addr land page_mask)

let[@inline] set pages addr v =
  unsafe_set_int64_le (wr pages addr) (addr land page_mask) v

let[@inline] load t addr =
  check t addr;
  get t.current addr

let[@inline] store t addr v =
  check t addr;
  set t.current addr v

(* Int-typed word access: [load_int t a = Int64.to_int (load t a)] and
   [store_int t a v] writes the same bytes as [store t a (Int64.of_int v)],
   but neither boxes an [int64] — the conversions happen between
   primitives inside one function, so the native compiler keeps the wide
   value in a register.  These carry the simulator's hot loops. *)

let[@inline] load_int t addr =
  check t addr;
  Int64.to_int (get t.current addr)

let[@inline] store_int t addr v =
  check t addr;
  set t.current addr (Int64.of_int v)

(* A store that is durable the moment it lands: the word goes to both
   images, so no write-back will ever need to carry it. *)
let[@inline] store_through t addr v =
  check t addr;
  set t.current addr v;
  set t.durable addr v

let[@inline] store_int_through t addr v = store_through t addr (Int64.of_int v)

(* 64-bit compare-and-swap against an int-expressible expected value,
   without boxing.  [actual = Int64.of_int expected] iff the low 63 bits
   match ([Int64.to_int actual = expected]) and bit 63 equals bit 62
   (i.e. the top two bits are 00 or 11, as sign extension produces).  A
   failed CAS writes nothing, so it leaves a zero page shared. *)
let[@inline] cas_int t addr ~expected ~desired =
  check t addr;
  let actual = get t.current addr in
  let top2 = Int64.to_int (Int64.shift_right actual 62) land 3 in
  if Int64.to_int actual = expected && (top2 = 0 || top2 = 3) then begin
    set t.current addr (Int64.of_int desired);
    true
  end
  else false

let load_durable t addr =
  check t addr;
  get t.durable addr

let page_untouched t addr =
  check t addr;
  let i = addr lsr page_bits in
  (i + 1) lsl page_bits <= t.size && Array.unsafe_get t.current i == zero_page

(* Copy [len] bytes at [addr] from current to durable.  The range must
   be in bounds and inside one page: [Config.validate] caps [line_size]
   at [page_size], so an aligned line never straddles two pages. *)
let copy_to_durable t addr len =
  let off = addr land page_mask in
  if addr < 0 || len < 0 || addr + len > t.size || off + len > page_size then
    Fmt.invalid_arg "Memory: range %d+%d out of bounds or across a page" addr
      len;
  Bytes.blit (Array.unsafe_get t.current (addr lsr page_bits)) off
    (wr t.durable addr) off len

let write_back t ~line_addr ~len = copy_to_durable t line_addr len

let write_back_word t addr =
  check t addr;
  copy_to_durable t addr 8

let flip_durable_bit t ~addr ~bit =
  check t addr;
  if bit < 0 || bit > 63 then
    Fmt.invalid_arg "Memory.flip_durable_bit: bit %d out of range" bit;
  set t.durable addr (Int64.logxor (get t.durable addr) (Int64.shift_left 1L bit))

(* A page whose durable copy is the zero page goes back to sharing it;
   any other page gets the durable bytes, reusing the current page when
   it is already private.  A slot that already shares the zero page is
   left alone: storing it again would cost a write barrier for each of
   a large region's untouched pages on every recovery. *)
let discard_current t =
  Array.iteri
    (fun i d ->
      if d == zero_page then begin
        if t.current.(i) != zero_page then t.current.(i) <- zero_page
      end
      else
        let c = t.current.(i) in
        if c == zero_page then t.current.(i) <- Bytes.copy d
        else Bytes.blit d 0 c 0 page_size)
    t.durable

let durable_snapshot t =
  let b = Bytes.create t.size in
  Array.iteri
    (fun i p ->
      let off = i lsl page_bits in
      Bytes.blit p 0 b off (Int.min page_size (t.size - off)))
    t.durable;
  Bytes.unsafe_to_string b
