(* [Hashtbl.MakeSeeded] over ints.  The polymorphic [Hashtbl] hashes
   each key through the C [caml_hash]; here a key costs one multiply and
   one shift.  The multiplier is [Intset]'s, and the shift brings the
   product's mixed high bits down to the low bits a bucket index keeps,
   so strided keys (sizes, ids, addresses) spread as well as dense ones.
   [MakeSeeded] calls [seeded_hash] directly, where [Hashtbl.Make] would
   reach it through one more wrapper per lookup; the hash ignores the
   seed, so bucket order is the [Make] table's. *)

include Hashtbl.MakeSeeded (struct
  type t = int

  let equal (a : int) b = a = b
  let seeded_hash _seed k = (k * 0x2545F4914F6CDD1D) lsr 31
end)
