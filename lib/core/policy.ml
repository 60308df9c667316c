type runtime_obligation =
  | No_runtime_action
  | Flush_log_entries
  | Write_through_to_storage

type crash_action =
  | Rely_on_kernel_persistence
  | Panic_flush_caches
  | Panic_dump_memory of { seconds : float }
  | Failover_to_ups
  | Nvdimm_save
  | Wsp_rescue of Wsp.outcome

type verdict =
  | Tsp of { actions : crash_action list; note : string }
  | Not_tsp of { runtime : runtime_obligation; reason : string }

let dump_seconds (h : Hardware.t) =
  float_of_int h.Hardware.dram_gb *. 1024. /. h.Hardware.storage_bandwidth_mb_s

(* A byte-addressable medium that survives a kernel panic exists when
   memory is non-volatile (power stays on, NVDIMMs will save on the next
   power event) or when the machine preserves DRAM across warm reboots. *)
let panic_durable_memory (h : Hardware.t) =
  match h.Hardware.memory with
  | Hardware.Nvram | Hardware.Nvdimm -> true
  | Hardware.Dram -> h.Hardware.warm_reboot_preserves_dram

let decide_process_crash (h : Hardware.t) =
  if h.Hardware.file_backed_mapping then
    Tsp
      {
        actions = [ Rely_on_kernel_persistence ];
        note =
          "POSIX MAP_SHARED gives kernel persistence: page cache and dirty \
           CPU lines outlive the process";
      }
  else
    Not_tsp
      {
        runtime = Write_through_to_storage;
        reason = "no file-backed mappings: process memory dies with it";
      }

let decide_kernel_panic (h : Hardware.t) =
  if h.Hardware.nonvolatile_caches && panic_durable_memory h then
    Tsp { actions = []; note = "nothing volatile stands between CPU and NVM" }
  else if not h.Hardware.panic_flush_handler then
    Not_tsp
      {
        runtime =
          (if panic_durable_memory h then Flush_log_entries
           else Write_through_to_storage);
        reason = "kernel cannot flush caches when it panics";
      }
  else if panic_durable_memory h then
    Tsp
      {
        actions = [ Panic_flush_caches ];
        note = "dying kernel flushes caches into a panic-durable memory";
      }
  else if h.Hardware.panic_dump_to_storage then
    Tsp
      {
        actions =
          [ Panic_flush_caches; Panic_dump_memory { seconds = dump_seconds h } ];
        note = "dying kernel flushes caches, then dumps memory to storage";
      }
  else
    Not_tsp
      {
        runtime = Write_through_to_storage;
        reason = "volatile DRAM is lost at reboot and cannot be dumped";
      }

let decide_power_outage (h : Hardware.t) =
  if h.Hardware.ups then
    Tsp
      {
        actions = [ Failover_to_ups ];
        note = "UPS keeps the whole machine powered through the outage";
      }
  else if h.Hardware.nonvolatile_caches && h.Hardware.memory <> Hardware.Dram
  then Tsp { actions = []; note = "no volatile state to rescue" }
  else
    let rescue = Wsp.of_hardware h in
    if rescue.Wsp.success then
      let actions =
        match h.Hardware.memory with
        | Hardware.Nvdimm -> [ Wsp_rescue rescue; Nvdimm_save ]
        | Hardware.Nvram | Hardware.Dram -> [ Wsp_rescue rescue ]
      in
      Tsp
        {
          actions;
          note = "standby energy suffices to move critical data to safety";
        }
    else
      Not_tsp
        {
          runtime =
            (match h.Hardware.memory with
            (* Without energy even for a cache flush, stores must be
               flushed eagerly; if memory itself is volatile, only block
               storage survives. *)
            | Hardware.Nvram | Hardware.Nvdimm -> Flush_log_entries
            | Hardware.Dram -> Write_through_to_storage);
          reason = "insufficient standby energy for a crash-time rescue";
        }

let decide h = function
  | Failure_class.Process_crash -> decide_process_crash h
  | Failure_class.Kernel_panic -> decide_kernel_panic h
  | Failure_class.Power_outage -> decide_power_outage h

let decide_requirement h (req : Requirement.t) =
  List.map (fun fc -> (fc, decide h fc)) req.Requirement.tolerated

let obligation_rank = function
  | No_runtime_action -> 0
  | Flush_log_entries -> 1
  | Write_through_to_storage -> 2

let weakest_runtime_obligation h req =
  List.fold_left
    (fun acc (_, v) ->
      let o =
        match v with
        | Tsp _ -> No_runtime_action
        | Not_tsp { runtime; _ } -> runtime
      in
      if obligation_rank o > obligation_rank acc then o else acc)
    No_runtime_action
    (decide_requirement h req)

let crash_model ~hardware ~failure = function
  | Some fault -> fault
  | None -> (
      match decide hardware failure with
      | Tsp _ -> Nvm.Fault_model.Full_rescue
      | Not_tsp _ -> Nvm.Fault_model.Full_discard)

let is_tsp = function Tsp _ -> true | Not_tsp _ -> false

let pp_runtime_obligation ppf = function
  | No_runtime_action -> Fmt.string ppf "no runtime action"
  | Flush_log_entries -> Fmt.string ppf "flush log entries synchronously"
  | Write_through_to_storage -> Fmt.string ppf "write through to storage"

let pp_crash_action ppf = function
  | Rely_on_kernel_persistence -> Fmt.string ppf "rely on kernel persistence"
  | Panic_flush_caches -> Fmt.string ppf "panic handler flushes caches"
  | Panic_dump_memory { seconds } ->
      Fmt.pf ppf "panic handler dumps memory (%.1f s)" seconds
  | Failover_to_ups -> Fmt.string ppf "fail over to UPS"
  | Nvdimm_save -> Fmt.string ppf "NVDIMM supercap save"
  | Wsp_rescue o -> Fmt.pf ppf "WSP rescue (%.3f s)" o.Wsp.total_time_s

let pp_verdict ppf = function
  | Tsp { actions; note } ->
      Fmt.pf ppf "TSP [%a] (%s)"
        Fmt.(list ~sep:semi pp_crash_action)
        actions note
  | Not_tsp { runtime; reason } ->
      Fmt.pf ppf "no TSP -> %a (%s)" pp_runtime_obligation runtime reason

let decision_matrix () =
  List.map
    (fun h ->
      ( h.Hardware.name,
        List.map (fun fc -> (fc, decide h fc)) Failure_class.all ))
    Hardware.all
