(** Capability descriptions of the hardware/OS platforms the paper's
    Section 3 surveys.  The TSP decision procedure ({!Policy}) consumes
    these to determine, per failure class, whether costly failure-free
    precautions can be replaced by a crash-time rescue. *)

type memory_tech =
  | Dram  (** volatile; contents lost when power is lost *)
  | Nvdimm
      (** DRAM persisted to on-DIMM flash by supercapacitor on power loss *)
  | Nvram  (** inherently non-volatile (PCM, STT-MRAM, memristor) *)

type t = {
  name : string;
  memory : memory_tech;
  nonvolatile_caches : bool;  (** Kiln-style persistent CPU caches *)
  file_backed_mapping : bool;
      (** OS provides POSIX MAP_SHARED kernel persistence (Appendix A) *)
  panic_flush_handler : bool;
      (** kernel panic path flushes CPU caches (the HP Linux patch) *)
  panic_dump_to_storage : bool;
      (** panic path can also write memory to stable storage *)
  warm_reboot_preserves_dram : bool;  (** Rio-style memory preservation *)
  ups : bool;  (** external uninterruptible power supply *)
  residual_energy_j : float;
      (** PSU residue usable after utility power fails (WSP stage 1) *)
  supercap_energy_j : float;
      (** supercapacitor energy (WSP stage 2 / NVDIMM save) *)
  cache_kb : int;  (** volatile CPU cache data to rescue *)
  dram_gb : int;  (** DRAM contents to rescue when evacuating *)
  dram_bandwidth_gb_s : float;
  flash_bandwidth_mb_s : float;
  storage_bandwidth_mb_s : float;  (** stable block storage *)
  rescue_power_w : float;  (** draw while performing a rescue *)
}

val conventional_server : t
(** Volatile DRAM, block storage, stock kernel: the pre-NVM baseline. *)

val panic_hardened_server : t
(** Conventional hardware plus the patched panic handler that flushes
    caches and dumps memory to storage. *)

val ups_server : t
(** Conventional hardware behind a UPS. *)

val wsp_machine : t
(** The Whole-System Persistence design point: PSU residual energy for
    stage 1 and supercapacitors sized for a DRAM-to-flash stage 2. *)

val nvdimm_server : t
(** Flash-backed NVDIMMs with on-DIMM supercaps; patched panic handler. *)

val nvram_machine : t
(** Inherently non-volatile memory on the bus; volatile caches. *)

val nvram_nvcache_machine : t
(** NVRAM plus non-volatile caches: nothing volatile remains. *)

val all : t list
val pp : t Fmt.t
val of_string : string -> (t, string) result
(** Look a platform up by its [name]; the error lists every name. *)
