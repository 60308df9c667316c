type memory_tech = Dram | Nvdimm | Nvram

type t = {
  name : string;
  memory : memory_tech;
  nonvolatile_caches : bool;
  file_backed_mapping : bool;
  panic_flush_handler : bool;
  panic_dump_to_storage : bool;
  warm_reboot_preserves_dram : bool;
  ups : bool;
  residual_energy_j : float;
  supercap_energy_j : float;
  cache_kb : int;
  dram_gb : int;
  dram_bandwidth_gb_s : float;
  flash_bandwidth_mb_s : float;
  storage_bandwidth_mb_s : float;
  rescue_power_w : float;
}

let base =
  {
    name = "base";
    memory = Dram;
    nonvolatile_caches = false;
    file_backed_mapping = true;
    panic_flush_handler = false;
    panic_dump_to_storage = false;
    warm_reboot_preserves_dram = false;
    ups = false;
    residual_energy_j = 0.;
    supercap_energy_j = 0.;
    cache_kb = 20 * 1024;
    dram_gb = 64;
    dram_bandwidth_gb_s = 20.;
    flash_bandwidth_mb_s = 500.;
    storage_bandwidth_mb_s = 200.;
    rescue_power_w = 150.;
  }

let conventional_server = { base with name = "conventional-server" }
let mmap_posix_server = { base with name = "mmap-posix-server" }

let panic_hardened_server =
  {
    base with
    name = "panic-hardened-server";
    panic_flush_handler = true;
    panic_dump_to_storage = true;
  }

let ups_server = { base with name = "ups-server"; ups = true }

let wsp_machine =
  {
    base with
    name = "wsp-machine";
    (* Narayanan & Hodson: tens of milliseconds of PSU residue suffice for
       registers+caches; supercaps sized for the DRAM-to-flash copy. *)
    residual_energy_j = 20.;
    supercap_energy_j = 25_000.;
    panic_flush_handler = true;
    flash_bandwidth_mb_s = 1000.;
  }

let nvdimm_server =
  {
    base with
    name = "nvdimm-server";
    memory = Nvdimm;
    panic_flush_handler = true;
    residual_energy_j = 20.;
    supercap_energy_j = 500.;  (* per-DIMM supercaps, built to suffice *)
  }

let nvram_machine =
  {
    base with
    name = "nvram-machine";
    memory = Nvram;
    panic_flush_handler = true;
    residual_energy_j = 10.;
  }

let nvram_nvcache_machine =
  {
    base with
    name = "nvram-nvcache-machine";
    memory = Nvram;
    nonvolatile_caches = true;
    panic_flush_handler = true;
  }

let all =
  [
    conventional_server;
    mmap_posix_server;
    panic_hardened_server;
    ups_server;
    wsp_machine;
    nvdimm_server;
    nvram_machine;
    nvram_nvcache_machine;
  ]

let of_string name =
  match List.find_opt (fun h -> String.equal h.name name) all with
  | Some h -> Ok h
  | None ->
      let names = String.concat ", " (List.map (fun h -> h.name) all) in
      Error (Printf.sprintf "unknown hardware %S (try one of: %s)" name names)

let memory_to_string = function
  | Dram -> "DRAM"
  | Nvdimm -> "NVDIMM"
  | Nvram -> "NVRAM"

let pp ppf t =
  Fmt.pf ppf "%s (%s%s%s%s%s)" t.name (memory_to_string t.memory)
    (if t.nonvolatile_caches then ", NV caches" else "")
    (if t.panic_flush_handler then ", panic flush" else "")
    (if t.ups then ", UPS" else "")
    (if t.residual_energy_j > 0. || t.supercap_energy_j > 0. then
       ", standby energy"
     else "")
