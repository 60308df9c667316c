module Rng = Sched.Sim_rng

type preset = A | B | C | F

let preset_to_string = function A -> "A" | B -> "B" | C -> "C" | F -> "F"

let preset_of_string = function
  | "A" | "a" -> Ok A
  | "B" | "b" -> Ok B
  | "C" | "c" -> Ok C
  | "F" | "f" -> Ok F
  | s -> Error (Printf.sprintf "unknown YCSB preset %S (A, B, C or F)" s)

let all_presets = [ A; B; C; F ]

let read_fraction = function A -> 0.5 | B -> 0.95 | C -> 1.0 | F -> 0.5
let rmw_fraction = function F -> 0.5 | A | B | C -> 0.0

module Zipf = struct
  type t = {
    n : int;
    alpha : float;
    zetan : float;
    eta : float;
    rank1 : float;  (* 1 + 0.5^theta: [sample]'s bound for rank 1 *)
  }

  let zeta n theta =
    let acc = ref 0. in
    for i = 1 to n do
      acc := !acc +. (1. /. Float.pow (float_of_int i) theta)
    done;
    !acc

  let create ?(theta = 0.99) ~n () =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    (* theta = 0 is the uniform degenerate case: zetan = n, alpha = 1,
       eta = 1, so [sample] reduces to floor(n * u) exactly. *)
    if theta < 0. || theta >= 1. then
      invalid_arg "Zipf.create: theta must be in [0, 1)";
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1. /. (1. -. theta) in
    let eta =
      (1. -. Float.pow (2. /. float_of_int n) (1. -. theta))
      /. (1. -. (zeta2 /. zetan))
    in
    { n; alpha; zetan; eta; rank1 = 1. +. Float.pow 0.5 theta }

  let sample t rng =
    let u = Rng.float rng 1.0 in
    let uz = u *. t.zetan in
    if uz < 1. then 0
    else if uz < t.rank1 then 1
    else
      let rank =
        float_of_int t.n
        *. Float.pow ((t.eta *. u) -. t.eta +. 1.) t.alpha
      in
      let r = int_of_float rank in
      if r >= t.n then t.n - 1 else if r < 0 then 0 else r
end

type op = Read | Update | Rmw

let pick_op preset rng =
  let u = Rng.float rng 1.0 in
  if u < read_fraction preset then Read
  else if u < read_fraction preset +. rmw_fraction preset then Rmw
  else Update
