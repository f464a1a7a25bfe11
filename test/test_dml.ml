(* DML parser: expression grammar, statements, error reporting, and the
   paper's Listing 1 running verbatim. *)
open Matrix
open Sysml

let device = Gpu_sim.Device.gtx_titan

let eval_scalar source ~name =
  let r = Script.eval device ~inputs:[] (Dml.parse source) in
  match Script.lookup r name with
  | Script.Num f -> f
  | _ -> Alcotest.fail "expected a scalar"

let test_precedence () =
  Alcotest.(check (float 1e-12)) "mul before add" 7.0
    (eval_scalar "a = 1 + 2 * 3;" ~name:"a");
  Alcotest.(check (float 1e-12)) "parens" 9.0
    (eval_scalar "a = (1 + 2) * 3;" ~name:"a");
  Alcotest.(check (float 1e-12)) "pow binds tighter than unary mul" 18.0
    (eval_scalar "a = 2 * 3 ^ 2;" ~name:"a");
  Alcotest.(check (float 1e-12)) "division" 2.5
    (eval_scalar "a = 5 / 2;" ~name:"a");
  Alcotest.(check (float 1e-12)) "comparison and &" 1.0
    (eval_scalar "a = 1 < 2 & 3 > 2;" ~name:"a");
  Alcotest.(check (float 1e-12)) "unary minus" (-6.0)
    (eval_scalar "a = -2 * 3;" ~name:"a")

let test_comments_and_whitespace () =
  Alcotest.(check (float 1e-12)) "comments" 4.0
    (eval_scalar "# leading comment\na = 4; # trailing\n" ~name:"a")

let test_while_and_if () =
  Alcotest.(check (float 1e-12)) "while" 10.0
    (eval_scalar "i = 0; while (i < 10) { i = i + 1; }" ~name:"i");
  Alcotest.(check (float 1e-12)) "if else" 2.0
    (eval_scalar "if (1 > 2) { a = 1; } else { a = 2; }" ~name:"a")

let test_scientific_notation () =
  Alcotest.(check (float 1e-18)) "1e-6" 1e-6
    (eval_scalar "a = 0.000001;" ~name:"a");
  Alcotest.(check (float 1e-18)) "exponent form" 2.5e3
    (eval_scalar "a = 2.5e3;" ~name:"a")

let expect_syntax_error source =
  match Dml.parse source with
  | (_ : Script.stmt list) -> false
  | exception Dml.Syntax_error _ -> true

let test_syntax_errors () =
  Alcotest.(check bool) "missing semicolon" true (expect_syntax_error "a = 1");
  Alcotest.(check bool) "stray %" true (expect_syntax_error "a = 1 % 2;");
  Alcotest.(check bool) "unterminated string" true
    (expect_syntax_error "write(a, \"w);");
  Alcotest.(check bool) "unterminated block" true
    (expect_syntax_error "while (1 > 0) { a = 1;");
  Alcotest.(check bool) "matrix(1,...) unsupported" true
    (expect_syntax_error "a = matrix(1, rows=2, cols=1);")

let test_error_reports_line () =
  match Dml.parse "a = 1;\nb = ;\n" with
  | (_ : Script.stmt list) -> Alcotest.fail "expected a syntax error"
  | exception Dml.Syntax_error msg ->
      Alcotest.(check bool) "line number in message" true
        (Astring.String.is_prefix ~affix:"line 2" msg)

let test_listing1_verbatim () =
  let rng = Rng.create 77 in
  let x = Gen.sparse_uniform rng ~rows:600 ~cols:50 ~density:0.1 in
  let truth = Gen.vector rng 50 in
  let targets = Blas.csrmv x truth in
  let input = Fusion.Executor.Sparse x in
  let program = Dml.parse Dml.listing1 in
  let r =
    Kf_plan.Compiler.execute
      (Kf_plan.Compiler.compile device ~inputs:[]
         ~positional:[ Script.Matrix input; Script.Vector targets ]
         program)
  in
  (* the script writes its solution as "w" *)
  let w =
    match List.assoc "w" r.Script.outputs with
    | Script.Vector w -> w
    | _ -> Alcotest.fail "expected the written output to be a vector"
  in
  let direct = Kf_ml.Linreg_cg.fit device input ~targets in
  Alcotest.(check bool) "Listing 1 verbatim = built-in LR-CG" true
    (Vec.approx_equal ~tol:1e-6 w direct.Kf_ml.Linreg_cg.weights);
  Alcotest.(check bool) "the q assignment fused every iteration" true
    (r.Script.fused_launches > direct.Kf_ml.Linreg_cg.iterations);
  Alcotest.(check bool) "trace shows X^T(Xy)+bz" true
    (List.mem Fusion.Pattern.Xt_X_y_plus_z
       (Fusion.Pattern.Trace.instantiations r.Script.trace))

let test_print_roundtrip_listing1 () =
  let program = Dml.parse Dml.listing1 in
  Alcotest.(check bool) "parse (print p) = p" true
    (Dml.parse (Dml.print program) = program)

(* random well-formed ASTs for the printer/parser roundtrip *)
let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun f -> Script.Const (Float.abs f)) (float_bound_inclusive 100.0);
        map (fun i -> Script.Var (Printf.sprintf "v%d" i)) (0 -- 5);
        map (fun k -> Script.Read (k + 1)) (0 -- 3);
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              map2
                (fun k (a, b) -> k a b)
                (oneofl
                   [
                     (fun a b -> Script.Add (a, b));
                     (fun a b -> Script.Sub (a, b));
                     (fun a b -> Script.Mul (a, b));
                     (fun a b -> Script.Div (a, b));
                     (fun a b -> Script.Lt (a, b));
                     (fun a b -> Script.Gt (a, b));
                     (fun a b -> Script.And (a, b));
                     (fun a b -> Script.Matmul (a, b));
                     (fun a b -> Script.Pow (a, b));
                   ])
                (pair (self (depth - 1)) (self (depth - 1))) );
            (1, map (fun e -> Script.Neg e) (self (depth - 1)));
            (1, map (fun e -> Script.Sum e) (self (depth - 1)));
            (1, map (fun e -> Script.Ncol e) (self (depth - 1)));
            (1, map (fun e -> Script.Nrow e) (self (depth - 1)));
            (1, map (fun e -> Script.T e) (self (depth - 1)));
            (1, map (fun e -> Script.Zero_vector e) (self (depth - 1)));
          ])
    3

let stmt_gen =
  let open QCheck.Gen in
  let assign =
    map2 (fun i e -> Script.Assign (Printf.sprintf "v%d" i, e)) (0 -- 5)
      expr_gen
  in
  list_size (1 -- 6) assign

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"printer/parser roundtrip (random ASTs)" ~count:200
    (QCheck.make stmt_gen)
    (fun program -> Dml.parse (Dml.print program) = program)

let test_parse_file_roundtrip () =
  let path = Filename.temp_file "kf_dml" ".dml" in
  let oc = open_out path in
  output_string oc Dml.listing1;
  close_out oc;
  let from_file = Dml.parse_file path in
  Sys.remove path;
  Alcotest.(check bool) "file = string" true
    (from_file = Dml.parse Dml.listing1)

let suite =
  [
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
    Alcotest.test_case "while/if" `Quick test_while_and_if;
    Alcotest.test_case "scientific notation" `Quick test_scientific_notation;
    Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
    Alcotest.test_case "errors carry line numbers" `Quick
      test_error_reports_line;
    Alcotest.test_case "Listing 1 runs verbatim" `Quick test_listing1_verbatim;
    Alcotest.test_case "parse_file" `Quick test_parse_file_roundtrip;
    Alcotest.test_case "print roundtrip (Listing 1)" `Quick
      test_print_roundtrip_listing1;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
  ]
