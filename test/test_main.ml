let () =
  Suites.run "tsp" (fun suite ->
      not (List.mem suite [ "workload"; "determinism"; "quantum" ]))
