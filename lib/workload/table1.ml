type cell = {
  variant : Runner.variant;
  paper_miters : float;
  measured_miters : float;  (* mean over the seeds *)
  spread_miters : float;  (* max - min over the seeds; 0 for one seed *)
  result : Runner.result;  (* the first seed's run *)
}

type row = { platform : Nvm.Config.t; cells : cell list }

let paper_desktop = [ 3.66; 2.36; 1.58; 2.54 ]
let paper_server = [ 2.13; 1.50; 1.06; 2.00 ]

let variants =
  [
    Runner.Mutex_map Atlas.Mode.No_log;
    Runner.Mutex_map Atlas.Mode.Log_only;
    Runner.Mutex_map Atlas.Mode.Log_flush;
    Runner.Nonblocking_map;
  ]

let run_row ?(threads = 8) ?(iterations = 4000) ?(seed = 11) ?(repeats = 1)
    ?jobs platform paper =
  let repeats = max 1 repeats in
  (* Every (variant, seed) pair is an independent deterministic cell;
     flatten them all and fan out.  Collection is positional, so the
     per-cell results (and hence the printed table) are identical for
     any job count. *)
  let cell_configs =
    List.concat_map
      (fun variant ->
        List.init repeats (fun i ->
            ( variant,
              {
                (Runner.calibrated_config platform) with
                Runner.variant;
                threads;
                iterations;
                seed = seed + (31 * i);
              } )))
      variants
  in
  let results =
    Parallel.map ?jobs
      (fun (variant, config) ->
        let result = Runner.run config in
        if not (Runner.consistent result) then
          Fmt.failwith
            "Table 1 run inconsistent for %s on %s (seed %d, %d sim cycles): \
             %a"
            (Runner.variant_to_string variant)
            platform.Nvm.Config.name config.Runner.seed
            result.Runner.elapsed_cycles Invariant.pp result.Runner.invariants;
        result)
      cell_configs
  in
  let cell i variant paper_miters =
    let results =
      List.filteri (fun j _ -> j / repeats = i) results
    in
    let ms = List.map (fun r -> r.Runner.miters_per_sec) results in
    let mean = List.fold_left ( +. ) 0. ms /. float_of_int (List.length ms) in
    let spread =
      List.fold_left Float.max neg_infinity ms
      -. List.fold_left Float.min infinity ms
    in
    {
      variant;
      paper_miters;
      measured_miters = mean;
      spread_miters = (if List.length ms > 1 then spread else 0.);
      result = List.hd results;
    }
  in
  { platform; cells = List.mapi (fun i (v, p) -> cell i v p)
        (List.combine variants paper) }

let run ?threads ?iterations ?seed ?repeats ?jobs () =
  [
    run_row ?threads ?iterations ?seed ?repeats ?jobs Nvm.Config.desktop
      paper_desktop;
    run_row ?threads ?iterations ?seed ?repeats ?jobs Nvm.Config.server
      paper_server;
  ]

let nth_meas row i = (List.nth row.cells i).measured_miters

let shape_ok row =
  let native = nth_meas row 0
  and log_only = nth_meas row 1
  and log_flush = nth_meas row 2 in
  native > log_only && log_only > log_flush
  && log_only /. log_flush >= 1.25

let render rows ppf =
  let header =
    [
      "Platform";
      "no Atlas";
      "log only";
      "log+flush";
      "non-blocking";
      "TSP speedup";
    ]
  in
  let data_row label f extra =
    label :: List.map f [ 0; 1; 2; 3 ] @ [ extra ]
  in
  let table_rows =
    List.concat_map
      (fun row ->
        let meas i = nth_meas row i in
        let paper i = (List.nth row.cells i).paper_miters in
        let speedup = Report.ratio (meas 1) (meas 2) in
        let paper_speedup = Report.ratio (paper 1) (paper 2) in
        let spread i = (List.nth row.cells i).spread_miters in
        [
          data_row
            (row.platform.Nvm.Config.name ^ " (measured)")
            (fun i ->
              if spread i > 0. then
                Printf.sprintf "%.2f (+-%.2f)" (meas i) (spread i /. 2.)
              else Printf.sprintf "%.2f" (meas i))
            speedup;
          data_row
            (row.platform.Nvm.Config.name ^ " (paper)")
            (fun i -> Printf.sprintf "%.2f" (paper i))
            paper_speedup;
          data_row
            (row.platform.Nvm.Config.name ^ " (overhead vs native)")
            (fun i -> Report.pct_change ~base:(meas 0) (meas i))
            "";
          data_row
            (row.platform.Nvm.Config.name ^ " (paper overhead)")
            (fun i -> Report.pct_change ~base:(paper 0) (paper i))
            "";
        ])
      rows
  in
  let threads = (List.hd (List.hd rows).cells).result.Runner.config.threads in
  Format.fprintf ppf
    "Table 1: throughput in millions of iterations/second (%d worker \
     thread%s,@ each iteration = 3 atomic map operations)@.@."
    threads
    (if threads = 1 then "" else "s");
  Report.table ~header ~rows:table_rows ppf;
  List.iter
    (fun row ->
      Format.fprintf ppf "@.%s: ordering no-Atlas > log-only > log+flush: %s@."
        row.platform.Nvm.Config.name
        (if shape_ok row then "HOLDS" else "VIOLATED"))
    rows

let render_breakdown row ppf =
  Format.fprintf ppf
    "@.Cycle decomposition on %s (where each variant's time goes):@.@."
    row.platform.Nvm.Config.name;
  List.iter
    (fun cell ->
      Format.fprintf ppf "%s:@.%a@.@."
        (Runner.variant_to_string cell.variant)
        Nvm.Stats.pp_breakdown cell.result.Runner.device_stats)
    row.cells
