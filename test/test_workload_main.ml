let () = Suites.run "tsp-workload" (String.equal "workload")
