(** Execute a TSP rescue plan against the simulated device.

    {!Policy.decide} names the crash-time actions; this module actually
    runs them when a failure is injected — flushing the dirty lines into
    the durable image for TSP verdicts, dropping them otherwise — and
    bills each action with the time and energy it would cost on the
    modelled hardware.  The bill is the "timely" and "sufficient" parts
    of TSP made concrete: a rescue is only a valid design if it fits the
    budget the hardware actually has at that moment (residual PSU
    energy, supercapacitors, panic-handler time). *)

type action_bill = {
  action : Policy.crash_action;
  seconds : float;
  energy_j : float;
  lines_involved : int;  (** dirty lines this action moved (if any) *)
}

type execution = {
  verdict : Policy.verdict;
  fault : Nvm.Fault_model.t;
      (** the model the crash ran: {!Policy.crash_model}'s answer *)
  damage : Nvm.Pmem.crash_damage;
  bills : action_bill list;
  total_seconds : float;
  total_energy_j : float;
  rescued_lines : int;
  dropped_lines : int;
}

val execute :
  ?fault:Nvm.Fault_model.t ->
  ?rng:(int -> int) ->
  Nvm.Pmem.t ->
  hardware:Hardware.t ->
  failure:Failure_class.t ->
  execution
(** Decide the verdict for [failure] on [hardware], apply a crash to the
    device and bill the actions against the dirty-line count observed at
    the instant of the crash.

    The crash runs {!Policy.crash_model}'s answer: without [fault] the
    verdict decides, TSP verdicts rescue every dirty line and non-TSP
    verdicts discard them.  With [fault] the campaign overrides those
    binary semantics with an adversarial model (see
    {!Nvm.Fault_model}): [Partial_rescue]'s
    energy budget is converted to a line count via
    {!Wsp.line_rescue_budget}, and the bill covers only the lines that
    actually moved before the fault cut the rescue short, priced as a
    synthetic {!Policy.Adversarial_rescue} action.  [rng] feeds
    {!Nvm.Pmem.crash}'s draws (defaults to the constant 0 — fine
    for the deterministic models, campaigns pass their seeded stream). *)
