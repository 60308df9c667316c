type execution = {
  verdict : Policy.verdict;
  fault : Nvm.Fault_model.t;
  damage : Nvm.Pmem.crash_damage;
}

let execute ?fault ?(rng = fun _ -> 0) pmem ~hardware ~failure =
  let verdict = Policy.decide hardware failure in
  let fault = Policy.crash_model ~hardware ~failure fault in
  let rescue_limit =
    match fault with
    | Nvm.Fault_model.Partial_rescue { energy_budget_j } ->
        Some
          (Wsp.line_rescue_budget hardware ~budget_j:energy_budget_j
             ~line_size:(Nvm.Pmem.config pmem).Nvm.Config.line_size)
    | _ -> None
  in
  let damage = Nvm.Pmem.crash pmem ~fault ?rescue_limit ~rng () in
  { verdict; fault; damage }
