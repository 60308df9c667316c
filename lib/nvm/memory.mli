(** The two byte images of the simulated NVM region.

    [current] is what running threads observe: it reflects every store
    issued so far, regardless of whether the data has left the (simulated)
    CPU cache.  [durable] is what the persistence domain holds: it is only
    updated when a line is written back — by cache eviction, by an explicit
    flush, or by a TSP crash-time rescue.  After a crash, recovery swaps
    the durable image in as the new current image; anything that never
    reached [durable] is gone.

    Both images are arrays of {!page_size}-byte pages, and every page
    starts as one shared, never-written zero page.  A page is
    materialised the first time something writes to it, so a device
    costs the pages a run touches rather than its whole region.  This is
    invisible through the interface: reads, bytes and errors are those
    of two flat zero-filled images. *)

type t

val page_size : int
(** Bytes per page: 4096, a constant.  {!Config.validate} rejects a
    [line_size] above it, so an aligned cache line lies inside one page. *)

val create : size:int -> t
(** Fresh, zero-filled region; [size] in bytes.  Costs two arrays of
    [ceil (size / page_size)] pointers (256 KiB for a 64 MiB region) and
    no page: nothing is zeroed. *)

val size : t -> int

val load : t -> int -> int64
(** [load t addr] reads the 8-byte little-endian word at byte offset
    [addr] from the current image.  [addr] must be 8-byte aligned and in
    bounds; the single fused validity check here is the only one on the
    path — the underlying byte access is unchecked. *)

val store : t -> int -> int64 -> unit
(** Write a word to the current image (cache semantics are handled by the
    device, not here). *)

val load_int : t -> int -> int
(** [Int64.to_int (load t addr)] without materialising the [int64] box:
    the wide value stays in a register between the read primitive and the
    truncation.  Allocation-free. *)

val store_int : t -> int -> int -> unit
(** Writes the same bytes as [store t addr (Int64.of_int v)], without
    boxing the intermediate [int64].  Allocation-free. *)

val store_through : t -> int -> int64 -> unit
(** Write a word to the current and the durable image at once, as a
    store followed by a write-back of just that word would. *)

val store_int_through : t -> int -> int -> unit
(** [store_through t addr (Int64.of_int v)] without the box.
    Allocation-free. *)

val cas_int : t -> int -> expected:int -> desired:int -> bool
(** Full 64-bit compare-and-swap of the word at [addr] against
    [Int64.of_int expected] (the comparison observes all 64 stored bits,
    so a word whose top two bits disagree — unreachable by sign
    extension — never matches), storing [Int64.of_int desired] on
    success.  Allocation-free. *)

val load_durable : t -> int -> int64
(** Read a word from the durable image, bypassing the current image.  Used
    by tests and by the recovery observer. *)

val page_untouched : t -> int -> bool
(** [page_untouched t addr] is [true] iff the current-image page holding
    the word at [addr] lies wholly inside the region and is still the
    shared zero page, so every word of it reads zero.  [false] says
    nothing: a page written back to all zeros is private and reads zero
    too.  [addr] is checked as {!load} checks it.  Allocation-free. *)

val write_back : t -> line_addr:int -> len:int -> unit
(** Copy [len] bytes at [line_addr] from current to durable: the effect of
    a cache-line write-back.  The range must lie inside the region and
    inside one page; [Invalid_argument] otherwise. *)

val write_back_word : t -> int -> unit
(** Copy one aligned 8-byte word from current to durable: the unit of a
    word-torn line write-back (see {!Fault_model.Torn_lines}). *)

val flip_durable_bit : t -> addr:int -> bit:int -> unit
(** Flip bit [bit] (0..63) of the durable word at [addr], leaving the
    current image untouched: post-crash media corruption
    ({!Fault_model.Bit_rot}).  Recovery then installs the corrupted
    durable image as current. *)

val discard_current : t -> unit
(** Replace the current image with a copy of the durable image: the effect
    of a crash in which unsaved data is lost.  Walks the page array once
    and copies only the durable pages that were ever written; a page
    whose durable copy is still the zero page goes back to sharing it.
    So it costs O(region / page_size) pointer steps plus O(k) page copies
    for k written durable pages, and allocates only for durable pages
    whose current copy was never written. *)

val durable_snapshot : t -> string
(** A copy of the entire durable image, for bit-exact comparisons in
    determinism tests.  Allocates and fills a [size]-byte string: the one
    operation here whose cost is still proportional to the region. *)
