let () =
  Suites.run "tsp-determinism" (fun suite ->
      List.mem suite [ "determinism"; "quantum" ])
