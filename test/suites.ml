(* Every unit suite, in the order one executable used to run them.  The
   suites run as three executables so that dune runs them side by side
   (test/dune).  [run name mine] runs the suites [mine] selects and
   registers every other suite with no tests: alcotest sizes its name
   column for every suite registered and truncates a test's name to
   what fits after it, so each result line prints exactly as it did
   from one executable. *)
let all =
  [ Test_nvm.suite; Test_hotpath.suite; Test_sched.suite; Test_pheap.suite;
    Test_atlas.suite;
    Test_core.suite; Test_maps.suite; Test_btree.suite;
    Test_workload.suite; Test_determinism.suite; Test_quantum.suite;
    Test_faults.suite;
    Test_checker.suite; Test_obs.suite; Test_service.suite;
    Test_recovery.suite ]

let run name mine =
  Alcotest.run name
    (List.map (fun (suite, tests) -> (suite, if mine suite then tests else [])) all)
