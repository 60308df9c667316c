type action_bill = {
  action : Policy.crash_action;
  seconds : float;
  energy_j : float;
  lines_involved : int;
}

type execution = {
  verdict : Policy.verdict;
  fault : Nvm.Fault_model.t;
  damage : Nvm.Pmem.crash_damage;
  bills : action_bill list;
  total_seconds : float;
  total_energy_j : float;
  rescued_lines : int;
  dropped_lines : int;
}

let bill_action (h : Hardware.t) ~dirty_lines ~line_size action =
  let dirty_mb =
    float_of_int (dirty_lines * line_size) /. (1024. *. 1024.)
  in
  let flush_seconds =
    dirty_mb /. (h.Hardware.dram_bandwidth_gb_s *. 1024.)
  in
  match action with
  | Policy.Rely_on_kernel_persistence ->
      (* Nothing moves at crash time: the page cache already holds the
         pages and dirty CPU lines stay coherent-visible (Appendix A). *)
      { action; seconds = 0.; energy_j = 0.; lines_involved = dirty_lines }
  | Policy.Panic_flush_caches ->
      {
        action;
        seconds = flush_seconds;
        energy_j = flush_seconds *. h.Hardware.rescue_power_w;
        lines_involved = dirty_lines;
      }
  | Policy.Panic_dump_memory { seconds } ->
      {
        action;
        seconds;
        energy_j = seconds *. h.Hardware.rescue_power_w;
        lines_involved = 0;
      }
  | Policy.Failover_to_ups ->
      (* The UPS keeps everything running; no data moves at the instant
         of the outage. *)
      { action; seconds = 0.; energy_j = 0.; lines_involved = 0 }
  | Policy.Nvdimm_save ->
      let dram_mb = float_of_int h.Hardware.dram_gb *. 1024. in
      let seconds = dram_mb /. h.Hardware.flash_bandwidth_mb_s in
      {
        action;
        seconds;
        energy_j = Float.min h.Hardware.supercap_energy_j
            (seconds *. h.Hardware.rescue_power_w);
        lines_involved = 0;
      }
  | Policy.Wsp_rescue outcome ->
      {
        action;
        seconds = outcome.Wsp.total_time_s;
        energy_j = outcome.Wsp.total_energy_j;
        lines_involved = dirty_lines;
      }
  | Policy.Adversarial_rescue _ ->
      (* Never part of a verdict's plan; [execute] synthesises its bill
         directly from the damage report. *)
      { action; seconds = 0.; energy_j = 0.; lines_involved = 0 }

let execute ?fault ?(rng = fun _ -> 0) pmem ~hardware ~failure =
  let verdict = Policy.decide hardware failure in
  let fault = Policy.crash_model ~hardware ~failure fault in
  let dirty_lines = Nvm.Pmem.dirty_line_count pmem in
  let line_size = (Nvm.Pmem.config pmem).Nvm.Config.line_size in
  let rescue_limit =
    match fault with
    | Nvm.Fault_model.Partial_rescue { energy_budget_j } ->
        Some
          (Wsp.line_rescue_budget hardware ~budget_j:energy_budget_j
             ~line_size)
    | _ -> None
  in
  let damage = Nvm.Pmem.crash pmem ~fault ?rescue_limit ~rng () in
  let bills =
    if Nvm.Fault_model.adversarial fault then begin
      (* The verdict's plan never ran to completion; bill only the data
         that actually moved before the fault cut the rescue short. *)
      let moved = damage.Nvm.Pmem.rescued + damage.Nvm.Pmem.torn in
      let moved_mb = float_of_int (moved * line_size) /. (1024. *. 1024.) in
      let seconds =
        moved_mb /. (hardware.Hardware.dram_bandwidth_gb_s *. 1024.)
      in
      [
        {
          action = Policy.Adversarial_rescue fault;
          seconds;
          energy_j = seconds *. hardware.Hardware.rescue_power_w;
          lines_involved = moved;
        };
      ]
    end
    else
      match verdict with
      | Policy.Tsp { actions; _ } ->
          List.map (bill_action hardware ~dirty_lines ~line_size) actions
      | Policy.Not_tsp _ -> []
  in
  {
    verdict;
    fault;
    damage;
    bills;
    total_seconds = List.fold_left (fun a b -> a +. b.seconds) 0. bills;
    total_energy_j = List.fold_left (fun a b -> a +. b.energy_j) 0. bills;
    rescued_lines = damage.Nvm.Pmem.rescued;
    dropped_lines = damage.Nvm.Pmem.dropped;
  }
