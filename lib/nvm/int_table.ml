(* [Hashtbl.Make] over ints.  The polymorphic [Hashtbl] hashes each key
   through the C [caml_hash]; here a key costs one multiply and one
   shift.  The multiplier is [Intset]'s, and the shift brings the
   product's mixed high bits down to the low bits a bucket index keeps,
   so strided keys (sizes, ids, addresses) spread as well as dense
   ones. *)

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 31
end)
