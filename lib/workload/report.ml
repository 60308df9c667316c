let table ~header ~rows ppf =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m r ->
        match List.nth_opt r c with
        | Some s -> max m (String.length s)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row r =
    List.mapi (fun c w -> pad (Option.value (List.nth_opt r c) ~default:"") w) widths
    |> String.concat "  "
  in
  let sep =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf ppf "%s@.%s@." (render_row header) sep;
  List.iter (fun r -> Format.fprintf ppf "%s@." (render_row r)) rows

let shown_rows = 20

let capped_rows ~more pp ppf rows =
  List.iteri (fun i r -> if i < shown_rows then Format.fprintf ppf "@ %a" pp r) rows;
  let hidden = List.length rows - shown_rows in
  if hidden > 0 then Format.fprintf ppf "@ ... and %d more %s" hidden more

let ratio measured base =
  if base = 0. || Float.is_nan measured || Float.is_nan base then "-"
  else Printf.sprintf "%.2fx" (measured /. base)

let pct_change ~base v =
  if base = 0. || Float.is_nan v then "-"
  else Printf.sprintf "%+.0f%%" ((v -. base) /. base *. 100.)

(* Nearest-rank percentile: the q-quantile of n samples is the
   ceil(q*n)-th smallest (1-based), clamped into range so q=0.0 reads
   the minimum and q=1.0 the maximum.  The previous truncating
   [int_of_float (q *. float (n - 1))] biased high quantiles low on
   small sample sets (p99 of 10 samples returned the 9th, not the 10th),
   and [Array.sort compare] paid polymorphic-compare dispatch per
   element.  [Obs.Hist.quantile] follows this same convention over its
   log buckets (rank ceil(q*n), 1-based), so exact and bucketed
   quantiles agree to within the bucket error and are regression-tested
   against each other in test_obs.ml. *)
let percentiles samples qs =
  if Array.length samples = 0 then []
  else begin
    let sorted = Array.copy samples in
    Array.sort Int.compare sorted;
    let n = Array.length sorted in
    List.map
      (fun q ->
        let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
        let ix = min (n - 1) (max 0 (rank - 1)) in
        (q, sorted.(ix)))
      qs
  end
