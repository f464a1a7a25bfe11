(* Degenerate shapes and boundary inputs: empty matrices, single cells,
   all-zero data, and minimal launches must neither crash nor corrupt
   results anywhere in the stack. *)
open Matrix
open Gpu_sim

let device = Device.gtx_titan

let empty_rows_csr ~rows ~cols =
  Csr.create ~rows ~cols ~values:[||] ~col_idx:[||]
    ~row_off:(Array.make (rows + 1) 0)

let test_empty_matrix_blas () =
  let x = empty_rows_csr ~rows:4 ~cols:3 in
  Alcotest.(check (array (float 1e-12))) "csrmv" [| 0.0; 0.0; 0.0; 0.0 |]
    (Blas.csrmv x [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (array (float 1e-12))) "csrmv_t" [| 0.0; 0.0; 0.0 |]
    (Blas.csrmv_t x [| 1.0; 1.0; 1.0; 1.0 |])

let test_empty_matrix_fused () =
  let x = empty_rows_csr ~rows:50 ~cols:8 in
  let w, _, _ =
    Fusion.Fused_sparse.pattern device x ~y:(Array.make 8 1.0) ~alpha:1.0 ()
  in
  Alcotest.(check (array (float 1e-12))) "zero result" (Array.make 8 0.0) w

let test_empty_matrix_cusparse () =
  let x = empty_rows_csr ~rows:10 ~cols:5 in
  let w, _ = Gpulibs.Cusparse.csrmv_t device x (Array.make 10 2.0) in
  Alcotest.(check (array (float 1e-12))) "zero result" (Array.make 5 0.0) w

let test_single_cell () =
  let x =
    Csr.create ~rows:1 ~cols:1 ~values:[| 3.0 |] ~col_idx:[| 0 |]
      ~row_off:[| 0; 1 |]
  in
  let w, _, _ = Fusion.Fused_sparse.pattern device x ~y:[| 2.0 |] ~alpha:1.0 () in
  Alcotest.(check (float 1e-12)) "3*(3*2)" 18.0 w.(0)

let test_single_row_dense () =
  let x = Dense.of_arrays [| [| 1.0; 2.0; 3.0 |] |] in
  let w, _, _, _ =
    Fusion.Fused_dense.pattern device x ~y:[| 1.0; 1.0; 1.0 |] ~alpha:1.0 ()
  in
  Alcotest.(check bool) "X^T(Xy) on one row" true
    (Vec.approx_equal w (Blas.gemv_t x (Blas.gemv x [| 1.0; 1.0; 1.0 |])))

let test_all_zero_values () =
  let rng = Rng.create 1 in
  let base = Gen.sparse_uniform rng ~rows:100 ~cols:20 ~density:0.1 in
  let x =
    Csr.create ~rows:100 ~cols:20
      ~values:(Array.map (fun _ -> 0.0) base.Csr.values)
      ~col_idx:base.Csr.col_idx ~row_off:base.Csr.row_off
  in
  let w, _, _ =
    Fusion.Fused_sparse.pattern device x ~y:(Gen.vector rng 20) ~alpha:5.0 ()
  in
  Alcotest.(check (float 1e-12)) "zero everywhere" 0.0 (Vec.nrm2 w)

let test_alpha_zero () =
  let rng = Rng.create 2 in
  let x = Gen.sparse_uniform rng ~rows:100 ~cols:20 ~density:0.1 in
  let z = Gen.vector rng 20 in
  let w, _, _ =
    Fusion.Fused_sparse.pattern device x ~y:(Gen.vector rng 20)
      ~beta_z:(2.0, z) ~alpha:0.0 ()
  in
  Alcotest.(check bool) "only beta z survives" true
    (Vec.approx_equal ~tol:1e-9 w (Vec.scale 2.0 z))

let test_one_column_matrix () =
  let rng = Rng.create 3 in
  let x = Gen.sparse_uniform rng ~rows:200 ~cols:1 ~density:1.0 in
  let w, _, _ = Fusion.Fused_sparse.pattern device x ~y:[| 1.5 |] ~alpha:1.0 () in
  Alcotest.(check bool) "1-column pattern" true
    (Vec.approx_equal ~tol:1e-7 w (Blas.csrmv_t x (Blas.csrmv x [| 1.5 |])))

let test_vector_ops_length_one () =
  let d, _ = Gpulibs.Cublas.dot device [| 2.0 |] [| 3.0 |] in
  Alcotest.(check (float 1e-12)) "length-1 dot" 6.0 d

let test_streaming_empty_rows () =
  let x = empty_rows_csr ~rows:100 ~cols:10 in
  let r =
    Fusion.Streaming.pattern ~device_budget_bytes:512 device x
      ~y:(Array.make 10 1.0) ~alpha:1.0 ()
  in
  Alcotest.(check (float 1e-12)) "zero result" 0.0 (Vec.nrm2 r.Fusion.Streaming.w)

let test_market_empty_matrix () =
  let path = Filename.temp_file "kf_edge" ".mtx" in
  let oc = open_out path in
  output_string oc "%%MatrixMarket matrix coordinate real general\n3 4 0\n";
  close_out oc;
  let x = Market.read_sparse path in
  Sys.remove path;
  Alcotest.(check int) "zero nnz" 0 (Csr.nnz x);
  Alcotest.(check int) "shape kept" 12 (x.Csr.rows * x.Csr.cols)

let test_hits_empty_graph () =
  let a = empty_rows_csr ~rows:5 ~cols:5 in
  let r = Kf_ml.Hits.run ~iterations:3 device a in
  Alcotest.(check bool) "finite scores" true
    (Array.for_all Float.is_finite r.Kf_ml.Hits.authorities)

let test_tuner_tiny_matrix () =
  let x =
    Csr.create ~rows:1 ~cols:2 ~values:[| 1.0 |] ~col_idx:[| 1 |]
      ~row_off:[| 0; 1 |]
  in
  let plan = Fusion.Tuning.sparse_plan device x in
  Alcotest.(check bool) "launchable plan for a 1-row matrix" true
    (plan.Fusion.Tuning.sp_grid >= 1)

(* rows=0 / cols=0: every entry point must return the epilogue
   (beta*z or zeros) without simulating or launching anything. *)

let test_zero_rows_fused () =
  let x = empty_rows_csr ~rows:0 ~cols:6 in
  let z = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let w, reports, _ =
    Fusion.Fused_sparse.pattern device x ~y:(Array.make 6 1.0)
      ~beta_z:(2.0, z) ~alpha:3.0 ()
  in
  Alcotest.(check (array (float 1e-12))) "beta*z survives" (Vec.scale 2.0 z) w;
  Alcotest.(check int) "no phantom kernel launch" 0 (List.length reports);
  let w, reports, _ =
    Fusion.Fused_sparse.pattern device x ~y:(Array.make 6 1.0) ~alpha:3.0 ()
  in
  Alcotest.(check (float 1e-12)) "zeros without beta z" 0.0 (Vec.nrm2 w);
  Alcotest.(check int) "no phantom kernel launch" 0 (List.length reports)

let test_zero_cols_fused () =
  let x = empty_rows_csr ~rows:7 ~cols:0 in
  let w, reports, _ =
    Fusion.Fused_sparse.pattern device x ~y:[||] ~alpha:1.0 ()
  in
  Alcotest.(check int) "empty result" 0 (Array.length w);
  Alcotest.(check int) "no phantom kernel launch" 0 (List.length reports)

let test_zero_rows_fused_dense () =
  let x = Dense.create 0 4 in
  let z = [| 1.0; -1.0; 2.0; -2.0 |] in
  let w, reports, _, _ =
    Fusion.Fused_dense.pattern device x ~y:(Array.make 4 1.0)
      ~beta_z:(0.5, z) ~alpha:1.0 ()
  in
  Alcotest.(check (array (float 1e-12))) "beta*z survives" (Vec.scale 0.5 z) w;
  Alcotest.(check int) "no phantom kernel launch" 0 (List.length reports)

let test_zero_rows_host () =
  let x = empty_rows_csr ~rows:0 ~cols:5 in
  let z = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  List.iter
    (fun variant ->
      let w =
        Fusion.Host_fused.pattern_sparse ~variant ~alpha:2.0 x
          (Array.make 5 1.0) ~beta:3.0 ~z ()
      in
      Alcotest.(check (array (float 1e-12)))
        (Fusion.Host_fused.variant_name variant ^ ": beta*z survives")
        (Vec.scale 3.0 z) w)
    Fusion.Host_fused.variants;
  let w = Fusion.Host_fused.xt_p ~alpha:1.0 x [||] in
  Alcotest.(check (float 1e-12)) "xt_p on 0 rows" 0.0 (Vec.nrm2 w)

let test_zero_cols_host () =
  let x = empty_rows_csr ~rows:9 ~cols:0 in
  let w = Fusion.Host_fused.pattern_sparse ~alpha:1.0 x [||] () in
  Alcotest.(check int) "empty result" 0 (Array.length w);
  let xd = Dense.create 0 0 in
  let w = Fusion.Host_fused.pattern_dense ~alpha:1.0 xd [||] () in
  Alcotest.(check int) "0x0 dense" 0 (Array.length w)

let test_zero_rows_executor_host () =
  let x = empty_rows_csr ~rows:0 ~cols:3 in
  let r =
    Fusion.Executor.pattern ~engine:Fusion.Executor.Host device (Sparse x)
      ~y:(Array.make 3 1.0) ~beta_z:(4.0, [| 1.0; 1.0; 1.0 |]) ~alpha:1.0 ()
  in
  Alcotest.(check (array (float 1e-12))) "beta*z through the executor"
    [| 4.0; 4.0; 4.0 |] r.Fusion.Executor.w

let test_memmgr_zero_bytes () =
  let mm = Sysml.Memmgr.create device in
  let cost = Sysml.Memmgr.ensure_resident mm ~key:"empty" ~bytes:0 ~needs_conversion:false in
  Alcotest.(check bool) "zero-byte block ok" true (cost >= 0.0)

let suite =
  [
    Alcotest.test_case "empty matrix: blas" `Quick test_empty_matrix_blas;
    Alcotest.test_case "empty matrix: fused" `Quick test_empty_matrix_fused;
    Alcotest.test_case "empty matrix: cusparse" `Quick
      test_empty_matrix_cusparse;
    Alcotest.test_case "single cell" `Quick test_single_cell;
    Alcotest.test_case "single dense row" `Quick test_single_row_dense;
    Alcotest.test_case "all-zero values" `Quick test_all_zero_values;
    Alcotest.test_case "alpha = 0" `Quick test_alpha_zero;
    Alcotest.test_case "one-column matrix" `Quick test_one_column_matrix;
    Alcotest.test_case "length-1 vector ops" `Quick test_vector_ops_length_one;
    Alcotest.test_case "streaming over empty rows" `Quick
      test_streaming_empty_rows;
    Alcotest.test_case "market: zero-nnz file" `Quick test_market_empty_matrix;
    Alcotest.test_case "HITS on an empty graph" `Quick test_hits_empty_graph;
    Alcotest.test_case "tuner on a 1-row matrix" `Quick test_tuner_tiny_matrix;
    Alcotest.test_case "rows=0: fused sparse" `Quick test_zero_rows_fused;
    Alcotest.test_case "cols=0: fused sparse" `Quick test_zero_cols_fused;
    Alcotest.test_case "rows=0: fused dense" `Quick test_zero_rows_fused_dense;
    Alcotest.test_case "rows=0: host kernels" `Quick test_zero_rows_host;
    Alcotest.test_case "cols=0: host kernels" `Quick test_zero_cols_host;
    Alcotest.test_case "rows=0: executor host engine" `Quick
      test_zero_rows_executor_host;
    Alcotest.test_case "memmgr zero-byte block" `Quick test_memmgr_zero_bytes;
  ]
