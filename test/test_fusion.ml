(* The fused kernels and their tuner: numerical equivalence with the
   reference on every instantiation and both layouts, the paper's worked
   tuning example, the large-column switch, codegen output, ablations,
   and the headline performance relations. *)
open Matrix
open Gpu_sim

let device = Device.gtx_titan
let tot = Sim.total_ms

let sparse_case seed ~rows ~cols ~density =
  let rng = Rng.create seed in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density in
  let y = Gen.vector rng cols in
  let v = Gen.vector rng rows in
  let z = Gen.vector rng cols in
  (x, y, v, z)

(* --- Pattern classification --- *)

let test_classify () =
  let open Fusion.Pattern in
  Alcotest.(check string) "xty" "a*X^T*y"
    (name
       (classify_shape
          { first_multiply = false; weighted = false; additive_tail = false }));
  Alcotest.(check bool) "full" true
    (classify_shape
       { first_multiply = true; weighted = true; additive_tail = true }
    = Full_pattern);
  Alcotest.check_raises "v without multiply"
    (Invalid_argument
       "Pattern.classify_shape: v or z without the first multiply")
    (fun () ->
      ignore
        (classify_shape
           { first_multiply = false; weighted = true; additive_tail = false }))

let test_paper_table1_claims () =
  let open Fusion.Pattern in
  Alcotest.(check (list string)) "xty used by all"
    [ "LR"; "GLM"; "LogReg"; "SVM"; "HITS" ]
    (paper_algorithms Xt_y);
  Alcotest.(check (list string)) "full only logreg" [ "LogReg" ]
    (paper_algorithms Full_pattern)

let test_trace () =
  let open Fusion.Pattern in
  let t = Trace.create ~algorithm:"test" in
  Trace.record t Xt_y;
  Trace.record t Xt_y;
  Trace.record t Full_pattern;
  Alcotest.(check int) "count" 2 (Trace.count t Xt_y);
  Alcotest.(check int) "distinct" 2 (List.length (Trace.instantiations t));
  Alcotest.(check int) "unrecorded" 0 (Trace.count t Xt_X_y)

(* --- Tuning --- *)

let test_eq4_vector_size () =
  let open Fusion.Tuning in
  Alcotest.(check int) "mu>32" 32 (sparse_vector_size 40.0);
  Alcotest.(check int) "mu=10 -> 8" 8 (sparse_vector_size 10.0);
  Alcotest.(check int) "mu=3 -> 2" 2 (sparse_vector_size 3.0);
  Alcotest.(check int) "mu=1.5 -> 1" 1 (sparse_vector_size 1.5)

let test_paper_tuning_example () =
  (* 500k x 1k, sparsity 0.01 -> VS=8, BS=640, 8832B shared, 28 blocks *)
  let x, _, _, _ = sparse_case 1 ~rows:500_000 ~cols:1024 ~density:0.01 in
  let p = Fusion.Tuning.sparse_plan device x in
  Alcotest.(check int) "VS=8" 8 p.Fusion.Tuning.sp_vs;
  Alcotest.(check int) "BS=640" 640 p.Fusion.Tuning.sp_bs;
  Alcotest.(check int) "shared=8832" 8832 p.Fusion.Tuning.sp_shared_bytes;
  Alcotest.(check int) "grid=28" 28 p.Fusion.Tuning.sp_grid;
  (* paper floors Eq 5 to 223; we round up for coverage *)
  Alcotest.(check int) "C=224" 224 p.Fusion.Tuning.sp_coarsening;
  Alcotest.(check bool) "small-n variant" false p.Fusion.Tuning.sp_large_n

let test_large_n_threshold () =
  Alcotest.(check int) "~6K column limit" 6143
    (Fusion.Tuning.max_shared_columns device);
  let x, _, _, _ = sparse_case 2 ~rows:1000 ~cols:7000 ~density:0.002 in
  Alcotest.(check bool) "wide matrix switches" true
    (Fusion.Tuning.sparse_plan device x).Fusion.Tuning.sp_large_n

let test_plan_covers_rows () =
  let x, _, _, _ = sparse_case 3 ~rows:12_345 ~cols:300 ~density:0.02 in
  let p = Fusion.Tuning.sparse_plan device x in
  let vectors = p.Fusion.Tuning.sp_grid * (p.Fusion.Tuning.sp_bs / p.Fusion.Tuning.sp_vs) in
  Alcotest.(check bool) "coverage" true
    (vectors * p.Fusion.Tuning.sp_coarsening >= 12_345)

let test_enumerate_plans () =
  let x, _, _, _ = sparse_case 4 ~rows:50_000 ~cols:1024 ~density:0.01 in
  let plans = Fusion.Tuning.enumerate_sparse_plans device x ~vs:8 in
  Alcotest.(check bool) "substantial search space" true
    (List.length plans > 200);
  List.iter
    (fun (bs, c, (p : Fusion.Tuning.sparse_plan)) ->
      Alcotest.(check bool) "bs consistent" true (p.sp_bs = bs);
      Alcotest.(check bool) "c consistent" true (p.sp_coarsening = c))
    plans

let test_dense_registers () =
  Alcotest.(check int) "TL=1 -> 23" 23 (Fusion.Tuning.dense_registers ~tl:1);
  Alcotest.(check int) "TL=40 -> 255" 255
    (Fusion.Tuning.dense_registers ~tl:40)

let test_dense_plan_small_cols () =
  (* n <= 32: BS=1024, TL=1 (the paper's exception) *)
  let p = Fusion.Tuning.dense_plan device ~rows:100_000 ~cols:28 in
  Alcotest.(check int) "BS=1024" 1024 p.Fusion.Tuning.dp_bs;
  Alcotest.(check int) "TL=1" 1 p.Fusion.Tuning.dp_tl

let test_dense_plan_bs128 () =
  let p = Fusion.Tuning.dense_plan device ~rows:50_000 ~cols:200 in
  Alcotest.(check int) "BS=128" 128 p.Fusion.Tuning.dp_bs;
  Alcotest.(check bool) "row covered" true
    (p.Fusion.Tuning.dp_vs * p.Fusion.Tuning.dp_tl >= 200)

let test_dense_plan_too_wide () =
  Alcotest.(check bool) "beyond register budget" true
    (match Fusion.Tuning.dense_plan device ~rows:1000 ~cols:6000 with
    | (_ : Fusion.Tuning.dense_plan) -> false
    | exception Invalid_argument _ -> true)

let prop_dense_plan_valid =
  QCheck.Test.make ~name:"dense plan internally consistent" ~count:100
    QCheck.(pair (int_range 100 100_000) (int_range 1 5000))
    (fun (rows, cols) ->
      match Fusion.Tuning.dense_plan device ~rows ~cols with
      | p ->
          p.Fusion.Tuning.dp_vs * p.Fusion.Tuning.dp_tl
            >= p.Fusion.Tuning.dp_padded_cols
          && p.Fusion.Tuning.dp_padded_cols >= cols
          && p.Fusion.Tuning.dp_bs mod p.Fusion.Tuning.dp_vs = 0
          && p.Fusion.Tuning.dp_regs <= 255
      | exception Invalid_argument _ -> true)

(* --- Codegen --- *)

let test_codegen_name_and_source () =
  let plan = Fusion.Tuning.dense_plan device ~rows:10_000 ~cols:32 in
  let spec = Fusion.Codegen.specialize plan in
  let name = Fusion.Codegen.kernel_name spec in
  Alcotest.(check bool) "mtmvm prefix" true
    (String.length name > 6 && String.sub name 0 6 = "mtmvm_");
  let src = Fusion.Codegen.cuda_source spec in
  Alcotest.(check bool) "mentions atomicAdd" true
    (Astring.String.is_infix ~affix:"atomicAdd" src)

let test_codegen_unrolls () =
  let plan = Fusion.Tuning.dense_plan device ~rows:10_000 ~cols:200 in
  let spec = Fusion.Codegen.specialize plan in
  let src = Fusion.Codegen.cuda_source spec in
  (* unrolled code names registers explicitly *)
  Alcotest.(check bool) "explicit registers" true
    (Astring.String.is_infix ~affix:"l_X1" src);
  let generic = Fusion.Codegen.generic plan in
  let gsrc = Fusion.Codegen.cuda_source generic in
  Alcotest.(check bool) "generic warns about local memory" true
    (Astring.String.is_infix ~affix:"local memory" gsrc)

(* --- Fused sparse: correctness --- *)

let check_pattern_against_reference ?options ~alpha ?with_v ?with_z x y v z =
  let v' = if with_v = Some true then Some v else None in
  let beta_z = if with_z = Some true then Some (0.5, z) else None in
  let got, _, _ =
    Fusion.Fused_sparse.pattern ?options device x ~y ?v:v' ?beta_z ~alpha ()
  in
  let beta = Option.map fst beta_z and zz = Option.map snd beta_z in
  let expected = Blas.pattern_sparse ~alpha x ?v:v' y ?beta ?z:zz () in
  Vec.approx_equal ~tol:1e-7 got expected

let test_fused_sparse_all_instantiations () =
  let x, y, v, z = sparse_case 5 ~rows:2000 ~cols:256 ~density:0.02 in
  Alcotest.(check bool) "X^T(Xy)" true
    (check_pattern_against_reference ~alpha:1.0 x y v z);
  Alcotest.(check bool) "X^T(v.(Xy))" true
    (check_pattern_against_reference ~alpha:1.0 ~with_v:true x y v z);
  Alcotest.(check bool) "X^T(Xy)+bz" true
    (check_pattern_against_reference ~alpha:1.0 ~with_z:true x y v z);
  Alcotest.(check bool) "full" true
    (check_pattern_against_reference ~alpha:2.5 ~with_v:true ~with_z:true x y
       v z)

let test_fused_xt_p_correct () =
  let x, _, _, _ = sparse_case 6 ~rows:3000 ~cols:200 ~density:0.02 in
  let p = Gen.vector (Rng.create 60) 3000 in
  let got, _, _ = Fusion.Fused_sparse.xt_p device x p ~alpha:(-2.0) in
  Alcotest.(check bool) "alpha X^T p" true
    (Vec.approx_equal got (Vec.scale (-2.0) (Blas.csrmv_t x p)))

let test_fused_sparse_large_n_correct () =
  let rng = Rng.create 7 in
  let x =
    Gen.sparse_mixture rng ~rows:2000 ~cols:20_000 ~nnz_per_row:10
      ~hot_fraction:0.3 ~hot_cols:500 ()
  in
  let y = Gen.vector rng 20_000 in
  let got, _, plan = Fusion.Fused_sparse.pattern device x ~y ~alpha:1.0 () in
  Alcotest.(check bool) "large-n plan" true plan.Fusion.Tuning.sp_large_n;
  Alcotest.(check bool) "correct" true
    (Vec.approx_equal ~tol:1e-7 got (Blas.csrmv_t x (Blas.csrmv x y)))

let test_fused_sparse_empty_rows () =
  (* matrices with empty rows must not crash or corrupt results *)
  let x =
    Csr.create ~rows:4 ~cols:3 ~values:[| 1.0; 2.0 |] ~col_idx:[| 0; 2 |]
      ~row_off:[| 0; 1; 1; 1; 2 |]
  in
  let y = [| 1.0; 1.0; 1.0 |] in
  let got, _, _ = Fusion.Fused_sparse.pattern device x ~y ~alpha:1.0 () in
  Alcotest.(check bool) "empty rows ok" true
    (Vec.approx_equal got (Blas.csrmv_t x (Blas.csrmv x y)))

let test_fused_sparse_ablation_options () =
  let x, y, _, _ = sparse_case 8 ~rows:20_000 ~cols:512 ~density:0.01 in
  let run options =
    let w, reports, _ = Fusion.Fused_sparse.pattern ~options device x ~y ~alpha:1.0 () in
    (w, tot reports)
  in
  let w_def, t_def = run Fusion.Fused_sparse.default_options in
  let w_noh, t_noh =
    run { Fusion.Fused_sparse.use_texture = true; hierarchical = false }
  in
  let w_notex, t_notex =
    run { Fusion.Fused_sparse.use_texture = false; hierarchical = true }
  in
  Alcotest.(check bool) "same result without hierarchy" true
    (Vec.approx_equal ~tol:1e-7 w_def w_noh);
  Alcotest.(check bool) "same result without texture" true
    (Vec.approx_equal ~tol:1e-7 w_def w_notex);
  Alcotest.(check bool) "hierarchical aggregation pays off" true
    (t_noh > t_def);
  Alcotest.(check bool) "texture binding does not hurt" true
    (t_notex >= t_def)

(* --- Fused dense: correctness --- *)

let test_fused_dense_correct () =
  let rng = Rng.create 9 in
  let x = Gen.dense rng ~rows:1000 ~cols:100 in
  let y = Gen.vector rng 100 in
  let v = Gen.vector rng 1000 in
  let z = Gen.vector rng 100 in
  let got, _, _, _ =
    Fusion.Fused_dense.pattern device x ~y ~v ~beta_z:(0.7, z) ~alpha:1.5 ()
  in
  let expected = Blas.pattern_dense ~alpha:1.5 x ~v y ~beta:0.7 ~z () in
  Alcotest.(check bool) "dense full pattern" true
    (Vec.approx_equal got expected)

let test_fused_dense_codegen_ablation () =
  let rng = Rng.create 10 in
  let x = Gen.dense rng ~rows:20_000 ~cols:256 in
  let y = Gen.vector rng 256 in
  let _, r_gen, _, spec = Fusion.Fused_dense.pattern device x ~y ~alpha:1.0 () in
  let _, r_nogen, _, spec' =
    Fusion.Fused_dense.pattern ~codegen:false device x ~y ~alpha:1.0 ()
  in
  Alcotest.(check bool) "generated kernel is register-resident" true
    spec.Fusion.Codegen.unrolled;
  Alcotest.(check bool) "fallback spills" true
    (not spec'.Fusion.Codegen.unrolled);
  Alcotest.(check bool) "spilling is much slower" true
    (tot r_nogen > 2.0 *. tot r_gen)

(* --- Executor dispatch --- *)

let test_executor_engines_agree () =
  let x, y, v, z = sparse_case 11 ~rows:1500 ~cols:300 ~density:0.02 in
  let input = Fusion.Executor.Sparse x in
  let f = Fusion.Executor.pattern ~engine:Fused device input ~y ~v ~beta_z:(0.3, z) ~alpha:2.0 () in
  let l = Fusion.Executor.pattern ~engine:Library device input ~y ~v ~beta_z:(0.3, z) ~alpha:2.0 () in
  Alcotest.(check bool) "engines agree" true
    (Vec.approx_equal ~tol:1e-7 f.Fusion.Executor.w l.Fusion.Executor.w);
  Alcotest.(check bool) "fused wins" true
    (f.Fusion.Executor.time_ms < l.Fusion.Executor.time_ms)

let test_executor_dense_fallback () =
  (* columns beyond the register budget: dispatch must fall back to the
     two-kernel cuBLAS plan, as Section 3.2 prescribes *)
  let rng = Rng.create 12 in
  let x = Gen.dense rng ~rows:200 ~cols:6000 in
  let y = Gen.vector rng 6000 in
  let r =
    Fusion.Executor.pattern ~engine:Fused device (Dense x) ~y ~alpha:1.0 ()
  in
  Alcotest.(check bool) "fell back to cublas" true
    (Astring.String.is_infix ~affix:"cublas fallback" r.Fusion.Executor.engine_used);
  Alcotest.(check bool) "still correct" true
    (Vec.approx_equal ~tol:1e-7 r.Fusion.Executor.w
       (Blas.pattern_dense ~alpha:1.0 x y ()))

let test_executor_classification () =
  let x, y, _, _ = sparse_case 13 ~rows:500 ~cols:100 ~density:0.05 in
  let input = Fusion.Executor.Sparse x in
  let r = Fusion.Executor.pattern device input ~y ~alpha:1.0 () in
  Alcotest.(check bool) "Xt_X_y" true
    (r.Fusion.Executor.instantiation = Some Fusion.Pattern.Xt_X_y);
  let p = Gen.vector (Rng.create 14) 500 in
  let r2 = Fusion.Executor.xt_y device input p ~alpha:1.0 in
  Alcotest.(check bool) "Xt_y" true
    (r2.Fusion.Executor.instantiation = Some Fusion.Pattern.Xt_y);
  let r3 = Fusion.Executor.x_y device input y in
  Alcotest.(check bool) "X y outside pattern" true
    (r3.Fusion.Executor.instantiation = None)

(* --- Headline relations --- *)

let test_fused_beats_library_sparse () =
  let x, y, _, _ = sparse_case 15 ~rows:50_000 ~cols:1024 ~density:0.01 in
  let input = Fusion.Executor.Sparse x in
  let f = Fusion.Executor.pattern ~engine:Fused device input ~y ~alpha:1.0 () in
  let l = Fusion.Executor.pattern ~engine:Library device input ~y ~alpha:1.0 () in
  let speedup = l.Fusion.Executor.time_ms /. f.Fusion.Executor.time_ms in
  Alcotest.(check bool) "speedup within the paper's band (2x-67x)" true
    (speedup > 2.0 && speedup < 120.0)

let test_fused_loads_less () =
  let x, y, _, _ = sparse_case 16 ~rows:50_000 ~cols:1024 ~density:0.01 in
  let input = Fusion.Executor.Sparse x in
  let dram r =
    List.fold_left
      (fun acc (rep : Sim.report) -> acc + Stats.total_dram_transactions rep.stats)
      0 r.Fusion.Executor.reports
  in
  let f = Fusion.Executor.pattern ~engine:Fused device input ~y ~alpha:1.0 () in
  let l = Fusion.Executor.pattern ~engine:Library device input ~y ~alpha:1.0 () in
  Alcotest.(check bool) "fewer load transactions (Fig 2 bottom)" true
    (dram f < dram l)

let prop_fused_sparse_random_correct =
  QCheck.Test.make ~name:"fused sparse = reference (random)" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let rows = 50 + Rng.int rng 200 in
      let cols = 10 + Rng.int rng 100 in
      let x = Gen.sparse_bernoulli rng ~rows ~cols ~density:0.1 in
      let y = Gen.vector rng cols in
      let got, _, _ = Fusion.Fused_sparse.pattern device x ~y ~alpha:1.0 () in
      Vec.approx_equal ~tol:1e-7 got (Blas.csrmv_t x (Blas.csrmv x y)))

let prop_fused_dense_random_correct =
  QCheck.Test.make ~name:"fused dense = reference (random)" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let rows = 50 + Rng.int rng 200 in
      let cols = 2 + Rng.int rng 120 in
      let x = Gen.dense rng ~rows ~cols in
      let y = Gen.vector rng cols in
      let got, _, _, _ = Fusion.Fused_dense.pattern device x ~y ~alpha:1.0 () in
      Vec.approx_equal ~tol:1e-7 got (Blas.gemv_t x (Blas.gemv x y)))

let suite =
  [
    Alcotest.test_case "pattern classify" `Quick test_classify;
    Alcotest.test_case "table 1 claims" `Quick test_paper_table1_claims;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "Eq 4 vector size" `Quick test_eq4_vector_size;
    Alcotest.test_case "paper tuning example" `Quick test_paper_tuning_example;
    Alcotest.test_case "large-n threshold (~6K)" `Quick test_large_n_threshold;
    Alcotest.test_case "plan covers rows" `Quick test_plan_covers_rows;
    Alcotest.test_case "plan enumeration (fig 6 space)" `Quick
      test_enumerate_plans;
    Alcotest.test_case "dense register curve" `Quick test_dense_registers;
    Alcotest.test_case "dense plan: small cols" `Quick
      test_dense_plan_small_cols;
    Alcotest.test_case "dense plan: BS=128" `Quick test_dense_plan_bs128;
    Alcotest.test_case "dense plan: too wide" `Quick test_dense_plan_too_wide;
    QCheck_alcotest.to_alcotest prop_dense_plan_valid;
    Alcotest.test_case "codegen name/source" `Quick
      test_codegen_name_and_source;
    Alcotest.test_case "codegen unrolls" `Quick test_codegen_unrolls;
    Alcotest.test_case "fused sparse: all instantiations" `Quick
      test_fused_sparse_all_instantiations;
    Alcotest.test_case "fused X^T p" `Quick test_fused_xt_p_correct;
    Alcotest.test_case "fused sparse: large-n" `Quick
      test_fused_sparse_large_n_correct;
    Alcotest.test_case "fused sparse: empty rows" `Quick
      test_fused_sparse_empty_rows;
    Alcotest.test_case "fused sparse: ablations" `Quick
      test_fused_sparse_ablation_options;
    Alcotest.test_case "fused dense correct" `Quick test_fused_dense_correct;
    Alcotest.test_case "fused dense: codegen ablation" `Quick
      test_fused_dense_codegen_ablation;
    Alcotest.test_case "executor: engines agree" `Quick
      test_executor_engines_agree;
    Alcotest.test_case "executor: dense fallback" `Quick
      test_executor_dense_fallback;
    Alcotest.test_case "executor: classification" `Quick
      test_executor_classification;
    Alcotest.test_case "fused beats library (sparse)" `Quick
      test_fused_beats_library_sparse;
    Alcotest.test_case "fused loads less (fig 2)" `Quick test_fused_loads_less;
    QCheck_alcotest.to_alcotest prop_fused_sparse_random_correct;
    QCheck_alcotest.to_alcotest prop_fused_dense_random_correct;
  ]
