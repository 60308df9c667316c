(** The Whole-System Persistence energy model (Narayanan & Hodson, cited
    in Section 3 as the archetypal TSP design).

    WSP rescues the entire machine state in two stages when utility power
    fails: stage 1 flushes CPU registers and caches into DRAM on the
    residual energy stored in the power supply; stage 2 evacuates DRAM
    into flash on supercapacitor energy.  The design is "timely" because
    it acts only when the failure occurs, and "sufficient" because each
    stage's energy budget covers exactly the data that stage must move.

    This module makes the accounting executable so the claim can be
    checked for a given platform: a rescue plan succeeds iff every
    stage's energy need fits its budget. *)

type stage = {
  label : string;
  data_mb : float;  (** volume this stage must move *)
  bandwidth_mb_s : float;
  power_w : float;  (** draw while the stage runs *)
  budget_j : float;  (** energy available to the stage *)
}

type stage_result = {
  stage : stage;
  time_s : float;
  energy_j : float;
  feasible : bool;  (** [energy_j <= budget_j] *)
}

type outcome = {
  stages : stage_result list;
  total_time_s : float;
  total_energy_j : float;
  success : bool;  (** every stage feasible *)
}

val run_stage : stage -> stage_result
val simulate : stage list -> outcome

val plan_for : Hardware.t -> stage list
(** The two WSP stages instantiated with a platform's cache and DRAM
    sizes, bandwidths and energy reserves.  NVRAM machines get only
    stage 1 (nothing in DRAM needs evacuation); machines with
    non-volatile caches get an empty plan. *)

val of_hardware : Hardware.t -> outcome
(** [simulate (plan_for h)]. *)

val line_rescue_budget : Hardware.t -> budget_j:float -> line_size:int -> int
(** How many cache lines a stage-1 rescue can move before [budget_j]
    joules run out, under the platform's DRAM bandwidth and rescue power
    draw.  This converts a {!Nvm.Fault_model.Partial_rescue} energy
    budget into the [rescue_limit] passed to {!Nvm.Pmem.crash};
    0 when the budget is non-positive. *)

val headroom : outcome -> float
(** Smallest ratio of budget to need across stages ([infinity] for an
    empty plan); > 1 means the rescue has margin. *)

val pp_outcome : outcome Fmt.t
