(** Execute a TSP rescue plan against the simulated device.

    {!Policy.decide} names the crash-time actions; this module runs the
    crash they imply when a failure is injected — writing the dirty
    lines into the durable image for TSP verdicts, dropping them
    otherwise — and reports what the crash did to the device.  What the
    actions cost in time and energy is the verdict's business: each
    action states its time ({!Policy.pp_verdict}), and {!Wsp} prices the
    rescue's energy. *)

type execution = {
  verdict : Policy.verdict;
  fault : Nvm.Fault_model.t;
      (** the model the crash ran: {!Policy.crash_model}'s answer *)
  damage : Nvm.Pmem.crash_damage;
}

val execute :
  ?fault:Nvm.Fault_model.t ->
  ?rng:(int -> int) ->
  Nvm.Pmem.t ->
  hardware:Hardware.t ->
  failure:Failure_class.t ->
  execution
(** Decide the verdict for [failure] on [hardware] and apply a crash to
    the device.

    The crash runs {!Policy.crash_model}'s answer: without [fault] the
    verdict decides, TSP verdicts rescue every dirty line and non-TSP
    verdicts discard them.  With [fault] the campaign overrides those
    binary semantics with an adversarial model (see
    {!Nvm.Fault_model}): [Partial_rescue]'s energy budget is converted
    to a line count via {!Wsp.line_rescue_budget}.  [rng] feeds
    {!Nvm.Pmem.crash}'s draws (defaults to the constant 0 — fine for
    the deterministic models, campaigns pass their seeded stream). *)
