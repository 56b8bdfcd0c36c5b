let () =
  Alcotest.run "rcoe"
    [
      ("rng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("hdr", Test_hdr.suite);
      ("checksum", Test_checksum.suite);
      ("isa", Test_isa.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("machine", Test_machine.suite);
      ("kernel", Test_kernel.suite);
      ("rcoe", Test_rcoe.suite);
      ("faults", Test_faults.suite);
      ("ycsb", Test_ycsb.suite);
      ("extensions", Test_extensions.suite);
      ("ft-ops", Test_ft_ops.suite);
      ("harness", Test_harness.suite);
      ("kv-protocol", Test_kv_protocol.suite);
      ("differential", Test_differential.suite);
      ("masking-cc", Test_masking_cc.suite);
      ("properties", Test_properties.suite);
      ("recovery", Test_recovery.suite);
      ("ckpt-incr", Test_ckpt_incr.suite);
      ("engine-par", Test_engine_par.suite);
      ("system-smoke", Test_system_smoke.suite);
      ("workloads", Test_workloads.suite);
      ("ingress", Test_ingress.suite);
      ("serve", Test_serve.suite);
      ("exec-blocks", Test_exec_blocks.suite);
      ("replay", Test_replay.suite);
      ("bench-schema", Test_bench_schema.suite);
    ]
