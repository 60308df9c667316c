(* HDR-style log-bucketed histogram over non-negative ints.

   Bucket layout: values below 16 get exact unit buckets; above, each
   power-of-two octave [2^k, 2^(k+1)) is split into 16 linear
   sub-buckets, so a bucket spanning [lo, lo + w) has w / lo <= 1/16 —
   a worst-case relative error of 6.25% (< the 7% budget), and half
   that when the midpoint is reported.  The bucket index of a value v
   with top bit k >= 4 is

     (k - 4) * 16 + (v lsr (k - 4))

   where the second term lands in [16, 32), making the whole index
   continuous with the 16 unit buckets.  With 62-bit OCaml ints the
   top usable k is 61, so 944 buckets cover every value.

   [add] is allocation-free (tail recursion plus int-array stores), so
   the histogram can sit on the tracer emit path and the service latency
   sink without perturbing the zero-allocation contracts. *)

let bucket_count = 944

type t = {
  buckets : int array;
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { buckets = Array.make bucket_count 0; n = 0; sum = 0; vmin = 0; vmax = 0 }

let reset t =
  Array.fill t.buckets 0 bucket_count 0;
  t.n <- 0;
  t.sum <- 0;
  t.vmin <- 0;
  t.vmax <- 0

(* Top-bit index for v >= 16, accumulator-passing so no ref cell is
   allocated on the emit path. *)
let rec top_bit v k = if v < 32 then k else top_bit (v lsr 1) (k + 1)

let index v = if v < 16 then v else ((top_bit v 4 - 4) * 16) + (v lsr (top_bit v 4 - 4))

let add t v =
  let v = if v < 0 then 0 else v in
  let b = if v < 16 then v else
    let k = top_bit v 4 in
    ((k - 4) * 16) + (v lsr (k - 4))
  in
  t.buckets.(b) <- t.buckets.(b) + 1;
  if t.n = 0 then begin
    t.vmin <- v;
    t.vmax <- v
  end
  else begin
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v
  end;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let count t = t.n
let sum t = t.sum
let is_empty t = t.n = 0
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

(* Inclusive lower bound and width of bucket [b]. *)
let bucket_lo b = if b < 16 then b else ((b land 15) + 16) lsl ((b lsr 4) - 1)
let bucket_width b = if b < 16 then 1 else 1 lsl ((b lsr 4) - 1)

(* Midpoint representative, clamped into the recorded [vmin, vmax] so
   the extremes stay exact. *)
let representative t b =
  let v = bucket_lo b + ((bucket_width b - 1) / 2) in
  if v < t.vmin then t.vmin else if v > t.vmax then t.vmax else v

(* Nearest-rank, matching Workload.Report.percentiles: rank =
   ceil(q * n), 1-based, clamped. *)
let quantile t q =
  if t.n = 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
    let rank = if rank < 1 then 1 else if rank > t.n then t.n else rank in
    let rec find b acc =
      let acc = acc + t.buckets.(b) in
      if acc >= rank then b else find (b + 1) acc
    in
    representative t (find 0 0)
  end

let levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 32) t =
  if t.n = 0 then ""
  else begin
    let lo = index t.vmin and hi = index t.vmax in
    let nb = hi - lo + 1 in
    let width = if width < 1 then 1 else min width nb in
    let acc = Array.make width 0 in
    for b = lo to hi do
      let g = (b - lo) * width / nb in
      acc.(g) <- acc.(g) + t.buckets.(b)
    done;
    let peak = Array.fold_left max 1 acc in
    let buf = Buffer.create (width * 3) in
    Array.iter
      (fun c ->
        if c = 0 then Buffer.add_char buf '.'
        else Buffer.add_string buf levels.(min 7 ((c * 8 - 1) / peak)))
      acc;
    Buffer.contents buf
  end

let pp ppf t =
  if t.n = 0 then Fmt.pf ppf "(empty)"
  else
    Fmt.pf ppf "n=%d mean=%.1f min=%d p50=%d p99=%d p999=%d max=%d  %s" t.n
      (mean t) t.vmin (quantile t 0.5) (quantile t 0.99) (quantile t 0.999)
      t.vmax (sparkline t)

let to_json j t =
  Json.obj_open j;
  Json.key j "n";
  Json.int j t.n;
  Json.key j "sum";
  Json.int j t.sum;
  Json.key j "min";
  Json.int j t.vmin;
  Json.key j "max";
  Json.int j t.vmax;
  Json.key j "mean";
  Json.float j (mean t);
  Json.key j "p50";
  Json.int j (quantile t 0.5);
  Json.key j "p99";
  Json.int j (quantile t 0.99);
  Json.key j "p999";
  Json.int j (quantile t 0.999);
  Json.key j "sparkline";
  Json.str j (sparkline t);
  Json.obj_close j
