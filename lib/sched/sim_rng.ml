(* Splitmix64, with its state stored as two 32-bit halves in native ints.

   A draw rebuilds the 64-bit state as an [int64] local, advances it and
   mixes it on [int64] locals, and stores the new state back into the
   halves.  The native compiler keeps [int64] values that flow between
   primitives inside one function in registers, so a draw allocates
   nothing; only a stored [int64] boxes, which is why the state lives in
   two ints rather than one [int64] field (a mutable [int64] field
   allocates a fresh box on every write).  [advance] is inlined into
   each caller, so [int], [bool], [float] and [split] never box its
   result; only [next] returns it boxed.

   The output stream is bit-identical to the boxed reference splitmix64
   (the test suite compares them draw by draw). *)

open Int_compare

type t = {
  mutable hi : int;  (* bits 32..63 of the splitmix64 state *)
  mutable lo : int;  (* bits 0..31 *)
}

let mask32 = 0xFFFFFFFF

(* golden_gamma; the mix multipliers are Steele et al.'s *)
let gamma = 0x9E3779B97F4A7C15L

(* One splitmix64 draw: state += gamma, then the 30/27/31 xorshift-
   multiply finalizer over the new state, which it returns. *)
let[@inline] advance t =
  let s =
    Int64.add
      (Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo))
      gamma
  in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int s land mask32;
  let z =
    Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Matches [Int64.of_int seed]: [asr] sign-extends, so bit 63 of the
   widened seed lands in bit 31 of [hi]. *)
let create ~seed = { hi = (seed asr 32) land mask32; lo = seed land mask32 }
let copy t = { hi = t.hi; lo = t.lo }
let next t = advance t

let split t =
  let z = advance t in
  {
    hi = Int64.to_int (Int64.shift_right_logical z 32);
    lo = Int64.to_int z land mask32;
  }

let[@inline never] bad_bound n =
  Fmt.invalid_arg "Sim_rng.int: bound %d must be positive" n

(* [v mod n] for [v] the output shifted right by one: a 63-bit value,
   non-negative as an [int64] though one bit too wide for an [int].  A
   power-of-two bound (the jitter bound 4, most pick ties) needs only
   [v]'s low bits, which [Int64.to_int] keeps; any other bound takes
   one 64-bit remainder. *)
let[@inline] int t n =
  if n <= 0 then bad_bound n;
  let v = Int64.shift_right_logical (advance t) 1 in
  if n land (n - 1) = 0 then Int64.to_int v land (n - 1)
  else Int64.to_int (Int64.rem v (Int64.of_int n))

let bool t = Int64.to_int (advance t) land 1 = 1

let float t x =
  (* output >>> 11 is < 2^53: exact as a float and within native range. *)
  let u = Int64.to_int (Int64.shift_right_logical (advance t) 11) in
  x *. (float_of_int u /. 9007199254740992.0 (* 2^53 *))
