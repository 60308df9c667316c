type stage = {
  label : string;
  data_mb : float;
  bandwidth_mb_s : float;
  power_w : float;
  budget_j : float;
}

type stage_result = {
  stage : stage;
  time_s : float;
  energy_j : float;
  feasible : bool;
}

type outcome = {
  stages : stage_result list;
  total_time_s : float;
  total_energy_j : float;
  success : bool;
}

let run_stage stage =
  let time_s =
    if stage.data_mb <= 0. then 0. else stage.data_mb /. stage.bandwidth_mb_s
  in
  let energy_j = time_s *. stage.power_w in
  { stage; time_s; energy_j; feasible = energy_j <= stage.budget_j }

let simulate stages =
  let stages = List.map run_stage stages in
  {
    stages;
    total_time_s = List.fold_left (fun a r -> a +. r.time_s) 0. stages;
    total_energy_j = List.fold_left (fun a r -> a +. r.energy_j) 0. stages;
    success = List.for_all (fun r -> r.feasible) stages;
  }

let stage1 (h : Hardware.t) =
  {
    label = "registers+caches -> memory";
    data_mb = float_of_int h.Hardware.cache_kb /. 1024.;
    bandwidth_mb_s = h.Hardware.dram_bandwidth_gb_s *. 1024.;
    power_w = h.Hardware.rescue_power_w;
    budget_j = h.Hardware.residual_energy_j;
  }

let stage2 (h : Hardware.t) =
  {
    label = "DRAM -> flash";
    data_mb = float_of_int h.Hardware.dram_gb *. 1024.;
    bandwidth_mb_s = h.Hardware.flash_bandwidth_mb_s;
    power_w = h.Hardware.rescue_power_w;
    budget_j = h.Hardware.supercap_energy_j;
  }

let plan_for (h : Hardware.t) =
  if h.Hardware.nonvolatile_caches then []
  else
    match h.Hardware.memory with
    | Hardware.Nvram | Hardware.Nvdimm ->
        (* NVDIMM's own save is powered by its on-DIMM supercaps and is
           engineered to suffice; the system-level plan only needs the
           cache flush. *)
        [ stage1 h ]
    | Hardware.Dram -> [ stage1 h; stage2 h ]

let of_hardware h = simulate (plan_for h)

let line_rescue_budget (h : Hardware.t) ~budget_j ~line_size =
  if budget_j <= 0. then 0
  else begin
    let time_s = budget_j /. h.Hardware.rescue_power_w in
    let mb = time_s *. h.Hardware.dram_bandwidth_gb_s *. 1024. in
    let bytes = mb *. 1024. *. 1024. in
    let lines = bytes /. float_of_int line_size in
    (* [int_of_float] of a count past [max_int] is [min_int] on x86-64,
       which would rescue nothing. *)
    if lines >= float_of_int max_int then max_int else int_of_float lines
  end

let headroom outcome =
  List.fold_left
    (fun acc r ->
      if r.energy_j <= 0. then acc
      else Float.min acc (r.stage.budget_j /. r.energy_j))
    infinity outcome.stages

let pp_outcome ppf o =
  let pp_stage ppf r =
    Fmt.pf ppf "%s: %.1f MB in %.3f s, %.2f J of %.2f J -> %s" r.stage.label
      r.stage.data_mb r.time_s r.energy_j r.stage.budget_j
      (if r.feasible then "ok" else "INSUFFICIENT")
  in
  Fmt.pf ppf "@[<v>%a@ total %.3f s, %.2f J: %s@]"
    Fmt.(list ~sep:cut pp_stage)
    o.stages o.total_time_s o.total_energy_j
    (if o.success then "rescue succeeds" else "rescue FAILS")
