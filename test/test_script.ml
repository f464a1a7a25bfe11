(* The DML-style script layer: the reference interpreter's value
   semantics, the plan compiler's fusion of pattern-shaped trees, and
   Listing 1 end to end on both. *)
open Matrix
open Sysml.Script

let device = Gpu_sim.Device.gtx_titan

let problem seed ~rows ~cols =
  let rng = Rng.create seed in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density:0.1 in
  let truth = Gen.vector rng cols in
  let targets = Blas.csrmv x truth in
  (Fusion.Executor.Sparse x, x, targets)

let run ?engine ~inputs program = eval ?engine device ~inputs program

(* the fusing path: compile for the engine, then execute the plan *)
let planned ?engine ~inputs program =
  Kf_plan.Compiler.execute
    (Kf_plan.Compiler.compile ?engine device ~inputs program)

let test_scalar_arithmetic () =
  let r =
    run ~inputs:[]
      [ Assign ("a", Const 6.0); Assign ("b", Div (Mul (Var "a", Const 7.0), Const 2.0)) ]
  in
  match lookup r "b" with
  | Num f -> Alcotest.(check (float 1e-12)) "6*7/2" 21.0 f
  | _ -> Alcotest.fail "expected a scalar"

let test_vector_ops () =
  let v = [| 1.0; 2.0; 3.0 |] in
  let r =
    run
      ~inputs:[ ("v", Vector v) ]
      [
        Assign ("s", Sum (Mul (Var "v", Var "v")));
        Assign ("u", Add (Var "v", Mul (Const 2.0, Var "v")));
        Assign ("d", Sub (Var "u", Var "v"));
      ]
  in
  (match lookup r "s" with
  | Num f -> Alcotest.(check (float 1e-9)) "sum(v*v)" 14.0 f
  | _ -> Alcotest.fail "expected scalar");
  Alcotest.(check (array (float 1e-9))) "3v" [| 3.0; 6.0; 9.0 |]
    (lookup_vector r "u");
  Alcotest.(check (array (float 1e-9))) "u - v" [| 2.0; 4.0; 6.0 |]
    (lookup_vector r "d")

let test_while_loop () =
  let r =
    run ~inputs:[]
      [
        Assign ("i", Const 0.0);
        While (Lt (Var "i", Const 5.0), [ Assign ("i", Add (Var "i", Const 1.0)) ]);
      ]
  in
  match lookup r "i" with
  | Num f -> Alcotest.(check (float 1e-12)) "loop count" 5.0 f
  | _ -> Alcotest.fail "expected scalar"

let test_if_branches () =
  let r =
    run ~inputs:[]
      [
        If (Gt (Const 2.0, Const 1.0), [ Assign ("x", Const 1.0) ],
            [ Assign ("x", Const 2.0) ]);
      ]
  in
  match lookup r "x" with
  | Num f -> Alcotest.(check (float 1e-12)) "then branch" 1.0 f
  | _ -> Alcotest.fail "expected scalar"

let test_fusion_recognised () =
  let input, x, _ = problem 1 ~rows:300 ~cols:40 in
  let rng = Rng.create 2 in
  let y = Gen.vector rng 40 in
  let r =
    planned
      ~inputs:[ ("X", Matrix input); ("y", Vector y) ]
      [ Assign ("w", Matmul (T (Var "X"), Matmul (Var "X", Var "y"))) ]
  in
  Alcotest.(check int) "one fused launch" 1 r.fused_launches;
  Alcotest.(check bool) "trace records X^T(Xy)" true
    (List.mem Fusion.Pattern.Xt_X_y
       (Fusion.Pattern.Trace.instantiations r.trace));
  Alcotest.(check bool) "correct result" true
    (Vec.approx_equal ~tol:1e-7 (lookup_vector r "w")
       (Blas.csrmv_t x (Blas.csrmv x y)))

let test_fusion_full_pattern () =
  let input, x, _ = problem 3 ~rows:200 ~cols:30 in
  let rng = Rng.create 4 in
  let y = Gen.vector rng 30 in
  let v = Gen.vector rng 200 in
  let z = Gen.vector rng 30 in
  let r =
    planned
      ~inputs:
        [ ("X", Matrix input); ("y", Vector y); ("v", Vector v); ("z", Vector z) ]
      [
        Assign
          ( "w",
            Add
              ( Mul
                  ( Const 2.0,
                    Matmul
                      (T (Var "X"), Mul (Var "v", Matmul (Var "X", Var "y")))
                  ),
                Mul (Const 0.5, Var "z") ) );
      ]
  in
  Alcotest.(check int) "fused" 1 r.fused_launches;
  let expected = Blas.pattern_sparse ~alpha:2.0 x ~v y ~beta:0.5 ~z () in
  Alcotest.(check bool) "full pattern" true
    (Vec.approx_equal ~tol:1e-7 (lookup_vector r "w") expected);
  Alcotest.(check bool) "trace records the full pattern" true
    (List.mem Fusion.Pattern.Full_pattern
       (Fusion.Pattern.Trace.instantiations r.trace))

let test_different_matrices_not_fused () =
  (* t(A) %*% (B %*% y) must NOT collapse into one launch *)
  let input_a, a, _ = problem 5 ~rows:100 ~cols:20 in
  let input_b, b, _ = problem 6 ~rows:100 ~cols:20 in
  let rng = Rng.create 7 in
  let y = Gen.vector rng 20 in
  let r =
    planned
      ~inputs:[ ("A", Matrix input_a); ("B", Matrix input_b); ("y", Vector y) ]
      [ Assign ("w", Matmul (T (Var "A"), Matmul (Var "B", Var "y"))) ]
  in
  Alcotest.(check bool) "no X^T(Xy) call" false
    (List.mem Fusion.Pattern.Xt_X_y
       (Fusion.Pattern.Trace.instantiations r.trace));
  Alcotest.(check bool) "still correct" true
    (Vec.approx_equal ~tol:1e-7 (lookup_vector r "w")
       (Blas.csrmv_t a (Blas.csrmv b y)))

let test_engines_agree () =
  let input, _, targets = problem 8 ~rows:400 ~cols:30 in
  let program = linreg_cg_script ~max_iterations:30 ~eps:0.001 in
  let inputs = [ ("V", Matrix input); ("y", Vector targets) ] in
  let fused = planned ~engine:Fusion.Executor.Fused ~inputs program in
  let library = planned ~engine:Fusion.Executor.Library ~inputs program in
  Alcotest.(check bool) "same solution" true
    (Vec.approx_equal ~tol:1e-6 (lookup_vector fused "w")
       (lookup_vector library "w"));
  Alcotest.(check bool) "fused script is faster" true
    (fused.gpu_ms < library.gpu_ms)

let test_listing1_matches_builtin () =
  let input, _, targets = problem 9 ~rows:500 ~cols:40 in
  let script_run =
    planned
      ~inputs:[ ("V", Matrix input); ("y", Vector targets) ]
      (linreg_cg_script ~max_iterations:100 ~eps:0.001)
  in
  let direct =
    Kf_ml.Linreg_cg.fit ~max_iterations:100 device input ~targets
  in
  Alcotest.(check bool) "script = built-in solver" true
    (Vec.approx_equal ~tol:1e-6
       (lookup_vector script_run "w")
       direct.Kf_ml.Linreg_cg.weights);
  Alcotest.(check bool) "one fusion per iteration (plus init)" true
    (script_run.fused_launches >= 2)

let test_type_errors () =
  let input, _, _ = problem 10 ~rows:20 ~cols:5 in
  let expect_type_error program =
    match run ~inputs:[ ("X", Matrix input) ] program with
    | (_ : run) -> false
    | exception Type_error _ -> true
  in
  Alcotest.(check bool) "matrix negation rejected" true
    (expect_type_error [ Assign ("a", Neg (Var "X")) ]);
  Alcotest.(check bool) "bare transpose rejected" true
    (expect_type_error [ Assign ("a", T (Var "X")) ]);
  Alcotest.(check bool) "unbound variable rejected" true
    (expect_type_error [ Assign ("a", Var "nope") ]);
  Alcotest.(check bool) "scalar + vector rejected" true
    (expect_type_error
       [ Assign ("a", Add (Const 1.0, Zero_vector (Const 3.0))) ])

(* The reference interpreter never fuses: Listing 1's q assignment is
   an X y call, an X^T y call, a scaling and an axpy, so the only
   Equation-1 calls it records are the X^T y ones. *)
let test_reference_is_unfused () =
  let input, _, targets = problem 9 ~rows:500 ~cols:40 in
  let r =
    eval device ~inputs:[]
      ~positional:[ Matrix input; Vector targets ]
      (Sysml.Dml.parse Sysml.Dml.listing1)
  in
  Alcotest.(check (list string))
    "records only a*X^T*y"
    [ Fusion.Pattern.name Fusion.Pattern.Xt_y ]
    (List.map Fusion.Pattern.name
       (Fusion.Pattern.Trace.instantiations r.trace));
  Alcotest.(check int) "one per X^T y call" r.fused_launches
    (Fusion.Pattern.Trace.count r.trace Fusion.Pattern.Xt_y)

let suite =
  [
    Alcotest.test_case "scalar arithmetic" `Quick test_scalar_arithmetic;
    Alcotest.test_case "vector operations" `Quick test_vector_ops;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "if branches" `Quick test_if_branches;
    Alcotest.test_case "fusion recognised" `Quick test_fusion_recognised;
    Alcotest.test_case "full pattern fused" `Quick test_fusion_full_pattern;
    Alcotest.test_case "different matrices not fused" `Quick
      test_different_matrices_not_fused;
    Alcotest.test_case "engines agree on Listing 1" `Quick test_engines_agree;
    Alcotest.test_case "Listing 1 = built-in LR-CG" `Quick
      test_listing1_matches_builtin;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "reference interpreter fuses nothing on Listing 1"
      `Quick test_reference_is_unfused;
  ]
