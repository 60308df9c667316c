let () =
  Alcotest.run "tsp"
    [ Test_nvm.suite; Test_hotpath.suite; Test_sched.suite; Test_pheap.suite;
      Test_atlas.suite;
      Test_core.suite; Test_maps.suite; Test_btree.suite;
      Test_workload.suite; Test_determinism.suite; Test_quantum.suite;
      Test_faults.suite;
      Test_checker.suite; Test_obs.suite; Test_service.suite;
      Test_recovery.suite ]
