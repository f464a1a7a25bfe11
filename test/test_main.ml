let () =
  (* Dist workers are re-execs of this binary: if we are one, serve and
     exit before Alcotest touches argv. *)
  Kf_dist.Worker.maybe_run ();
  Test_par.maybe_run_pool_race ();
  Alcotest.run "kernel_fusion"
    [
      ("vec", Test_vec.suite);
      ("dense", Test_dense.suite);
      ("sparse", Test_sparse.suite);
      ("blas", Test_blas.suite);
      ("market", Test_market.suite);
      ("gpu", Test_gpu.suite);
      ("warp", Test_warp.suite);
      ("gpulibs", Test_gpulibs.suite);
      ("fusion", Test_fusion.suite);
      ("executor", Test_executor.suite);
      ("ml", Test_ml.suite);
      ("glm-families", Test_glm_families.suite);
      ("streaming", Test_streaming.suite);
      ("system", Test_system.suite);
      ("script", Test_script.suite);
      ("dml", Test_dml.suite);
      ("extensions", Test_extensions.suite);
      ("par", Test_par.suite);
      ("host", Test_host.suite);
      ("obs", Test_obs.suite);
      ("plan", Test_plan.suite);
      ("graph", Test_graph.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("consistency", Test_consistency.suite);
      ("reproduction", Test_reproduction.suite);
      ("resil", Test_resil.suite);
      ("serve", Test_serve.suite);
      ("adaptive", Test_adaptive.suite);
      ("chaos", Test_chaos.suite);
      ("dist", Test_dist.suite);
    ]
