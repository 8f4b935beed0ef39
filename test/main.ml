let () =
  Alcotest.run "nvalloc"
    [
      ("sim", Test_sim.suite);
      ("rbtree", Test_rbtree.suite);
      ("support", Test_support.suite);
      ("device", Test_device.suite);
      ("dax", Test_dax.suite);
      ("pstruct", Test_pstruct.suite);
      ("substrate-perf", Test_substrate_perf.suite);
      ("bitmap", Test_bitmap.suite);
      ("slab-tcache", Test_slab_tcache.suite);
      ("heap", Test_heap.suite);
      ("wal", Test_wal.suite);
      ("extent", Test_extent.suite);
      ("booklog", Test_booklog.suite);
      ("nvalloc", Test_nvalloc.suite);
      ("morph", Test_morph.suite);
      ("crash-sweep", Test_crash_sweep.suite);
      ("internal-collection", Test_internal_collection.suite);
      ("fault", Test_fault.suite);
      ("media", Test_media.suite);
      ("fptree", Test_fptree.suite);
      ("baselines", Test_baselines.suite);
      ("workloads", Test_workloads.suite);
      ("check", Test_check.suite);
      ("guard", Test_guard.suite);
      ("search", Test_search.suite);
      ("par", Test_search.par_suite);
      ("telemetry", Test_telemetry.suite);
      ("harness", Test_harness.suite);
      ("bench-gate", Test_bench_gate.suite);
    ]
