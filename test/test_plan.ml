(* The plan compiler (lib/plan): planned execution must be
   observationally equivalent to the unfused reference interpreter
   ([Sysml.Script.eval]) on every engine, the rewrite passes must fire
   where Listing 1 says they can, the planner must not re-resolve
   loop-invariant work the interpreter re-resolves every iteration, the
   cost model must prefer the paper's single fused kernel on the
   500k x 1k worked example, and a plan must depend only on the
   compiler's arguments. *)
open Matrix
module Script = Sysml.Script
module Compiler = Kf_plan.Compiler

let device = Gpu_sim.Device.gtx_titan

(* ---- fixed inputs for the random programs ------------------------------ *)

let rows = 40

let cols = 12

let inputs =
  let rng = Rng.create 42 in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density:0.25 in
  [
    ("X", Script.Matrix (Fusion.Executor.Sparse x));
    ("r", Script.Vector (Gen.vector rng rows));
    ("c", Script.Vector (Gen.vector rng cols));
    ("a", Script.Num 1.25);
    ("b", Script.Num (-0.5));
  ]

(* Engines under test; the Host pools are shared across cases (spawning
   domains per qcheck case would dominate the run). *)
let pool1 = lazy (Par.Pool.create ~size:1 ())

let pool2 = lazy (Par.Pool.create ~size:2 ())

let engine_cases () =
  [
    (Fusion.Executor.Fused, None);
    (Fusion.Executor.Library, None);
    (Fusion.Executor.Host, Some (Lazy.force pool1));
    (Fusion.Executor.Host, Some (Lazy.force pool2));
  ]

(* ---- typed program generator ------------------------------------------- *)

(* Three value spaces keep every generated program well-typed: scalars,
   rows-space vectors (length [rows]) and cols-space vectors (length
   [cols]).  [X %*% _] maps Cv to Rv; [t(X) %*% _] maps Rv to Cv. *)
type vty = Sc | Rv | Cv

type genv = { sc : string list; rv : string list; cv : string list }

let initial = { sc = [ "a"; "b" ]; rv = [ "r" ]; cv = [ "c" ] }

let vars_of env = function Sc -> env.sc | Rv -> env.rv | Cv -> env.cv

let add_var env ty x =
  if List.mem x (vars_of env ty) then env
  else
    match ty with
    | Sc -> { env with sc = x :: env.sc }
    | Rv -> { env with rv = x :: env.rv }
    | Cv -> { env with cv = x :: env.cv }

(* Unique across the whole qcheck run; only uniqueness within one
   program matters (both executions see the same concrete AST). *)
let fresh =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "v%d" !k

(* Small magnitudes keep loop-carried products from overflowing. *)
let const_gen =
  QCheck.Gen.map
    (fun f -> Script.Const f)
    (QCheck.Gen.oneofl [ -1.5; -1.0; -0.5; 0.25; 0.5; 1.0; 1.5 ])

(* No Div/Pow (singularities) and no comparisons outside conditions;
   conditions never depend on vector data, so a planned-vs-interpreted
   ulp difference can never flip a branch and mask itself. *)
let rec expr_gen env ty n =
  let open QCheck.Gen in
  let var ty = map (fun x -> Script.Var x) (oneofl (vars_of env ty)) in
  let leaf = match ty with Sc -> oneof [ const_gen; var Sc ] | _ -> var ty in
  if n <= 0 then leaf
  else
    let e ty = expr_gen env ty (n - 1) in
    let bin mk a b = map2 mk (e a) (e b) in
    frequency
      (match ty with
      | Sc ->
          [
            (3, leaf);
            (2, bin (fun a b -> Script.Add (a, b)) Sc Sc);
            (1, bin (fun a b -> Script.Sub (a, b)) Sc Sc);
            (2, bin (fun a b -> Script.Mul (a, b)) Sc Sc);
            (1, map (fun a -> Script.Neg a) (e Sc));
            (1, map (fun a -> Script.Sum a) (sum_arg_gen env Rv (n - 1)));
            (1, map (fun a -> Script.Sum a) (sum_arg_gen env Cv (n - 1)));
            (1, return (Script.Ncol (Script.Var "X")));
            (1, return (Script.Nrow (Script.Var "X")));
          ]
      | Rv ->
          [
            (3, leaf);
            (2, map (fun a -> Script.Matmul (Script.Var "X", a)) (e Cv));
            (1, bin (fun a b -> Script.Add (a, b)) Rv Rv);
            (1, bin (fun a b -> Script.Sub (a, b)) Rv Rv);
            (1, bin (fun a b -> Script.Mul (a, b)) Rv Rv);
            (1, bin (fun a b -> Script.Mul (a, b)) Sc Rv);
            (1, map (fun a -> Script.Neg a) (e Rv));
          ]
      | Cv ->
          [
            (3, leaf);
            ( 2,
              map
                (fun a -> Script.Matmul (Script.T (Script.Var "X"), a))
                (e Rv) );
            (1, bin (fun a b -> Script.Add (a, b)) Cv Cv);
            (1, bin (fun a b -> Script.Sub (a, b)) Cv Cv);
            (1, bin (fun a b -> Script.Mul (a, b)) Cv Cv);
            (1, bin (fun a b -> Script.Mul (a, b)) Sc Cv);
            (1, map (fun a -> Script.Neg a) (e Cv));
          ])

(* A vector expression that is safe directly under [sum]: the
   interpreter special-cases [sum(u * v)] as a dot product and rejects
   a scalar factor there, so no top-level [scalar * vector]. *)
and sum_arg_gen env ty n =
  let open QCheck.Gen in
  let var = map (fun x -> Script.Var x) (oneofl (vars_of env ty)) in
  if n <= 0 then var
  else
    let e ty = expr_gen env ty (n - 1) in
    let bin mk a b = map2 mk (e a) (e b) in
    let matmul =
      match ty with
      | Rv -> map (fun a -> Script.Matmul (Script.Var "X", a)) (e Cv)
      | _ -> map (fun a -> Script.Matmul (Script.T (Script.Var "X"), a)) (e Rv)
    in
    frequency
      [
        (3, var);
        (2, matmul);
        (1, bin (fun a b -> Script.Add (a, b)) ty ty);
        (1, bin (fun a b -> Script.Sub (a, b)) ty ty);
        (1, bin (fun a b -> Script.Mul (a, b)) ty ty);
      ]

let ty_gen = QCheck.Gen.oneofl [ Sc; Sc; Rv; Cv ]

let assign_gen env depth =
  let open QCheck.Gen in
  ty_gen >>= fun ty ->
  expr_gen env ty depth >>= fun e ->
  oneof [ return (fresh ()); oneofl (vars_of env ty) ] >>= fun x ->
  return (add_var env ty x, [ Script.Assign (x, e) ])

(* Both branches assign the same, already-bound variable so the if-join
   is well-typed whichever branch runs. *)
let if_gen env depth =
  let open QCheck.Gen in
  ty_gen >>= fun ty ->
  oneofl (vars_of env ty) >>= fun x ->
  expr_gen env ty depth >>= fun e1 ->
  expr_gen env ty depth >>= fun e2 ->
  const_gen >>= fun p ->
  const_gen >>= fun q ->
  return
    ( env,
      [
        Script.If
          ( Script.Gt (p, q),
            [ Script.Assign (x, e1) ],
            [ Script.Assign (x, e2) ] );
      ] )

(* A counting loop: the body reassigns pre-existing variables (loop
   phis and exits) but never the counter, so termination is syntactic.
   Bodies may read the counter. *)
let while_gen env depth =
  let open QCheck.Gen in
  let i = fresh () in
  let benv = add_var env Sc i in
  int_range 1 3 >>= fun k ->
  int_range 1 2 >>= fun nb ->
  let body_assign =
    ty_gen >>= fun ty ->
    oneofl (vars_of env ty) >>= fun x ->
    expr_gen benv ty depth >>= fun e -> return (Script.Assign (x, e))
  in
  list_repeat nb body_assign >>= fun body ->
  return
    ( add_var env Sc i,
      [
        Script.Assign (i, Script.Const 0.0);
        Script.While
          ( Script.Lt (Script.Var i, Script.Const (float_of_int k)),
            body
            @ [
                Script.Assign
                  (i, Script.Add (Script.Var i, Script.Const 1.0));
              ] );
      ] )

let program_gen =
  let open QCheck.Gen in
  let rec go env count acc =
    if count = 0 then
      oneofl (env.rv @ env.cv) >>= fun out ->
      return (List.rev (Script.Write (Script.Var out, "out") :: acc))
    else
      frequency
        [ (5, assign_gen env 3); (2, while_gen env 2); (2, if_gen env 2) ]
      >>= fun (env, ss) -> go env (count - 1) (List.rev_append ss acc)
  in
  int_range 3 6 >>= fun count -> go initial count []

(* ---- observational equivalence ----------------------------------------- *)

let scalar_close a b =
  Float.abs (a -. b)
  <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let value_eq a b =
  match (a, b) with
  | Script.Num x, Script.Num y -> scalar_close x y
  | Script.Vector u, Script.Vector v -> Vec.approx_equal u v
  | Script.Matrix _, Script.Matrix _ -> true
  | _ -> false

(* Both paths fold their binding table over the same key set (inputs +
   assigned variables), so the envs must match as finite maps. *)
let runs_agree (ri : Script.run) (rp : Script.run) =
  List.length ri.Script.env = List.length rp.Script.env
  && List.for_all
       (fun (x, v) ->
         match List.assoc_opt x rp.Script.env with
         | Some v' -> value_eq v v'
         | None -> false)
       ri.Script.env
  && List.length ri.Script.outputs = List.length rp.Script.outputs
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && value_eq v1 v2)
       ri.Script.outputs rp.Script.outputs

let prop_planned_equals_interp =
  QCheck.Test.make
    ~name:"planned = interpreter (random programs, all engines and pools)"
    ~count:30
    (QCheck.make ~print:Sysml.Dml.print program_gen)
    (fun program ->
      List.for_all
        (fun (engine, pool) ->
          let ri = Script.eval ~engine ?pool device ~inputs program in
          let t = Compiler.compile ~engine ?pool device ~inputs program in
          runs_agree ri (Compiler.execute t))
        (engine_cases ()))

(* ---- Listing 1 ---------------------------------------------------------- *)

let listing1_setup () =
  let rng = Rng.create 77 in
  let x = Gen.sparse_uniform rng ~rows:600 ~cols:50 ~density:0.1 in
  let truth = Gen.vector rng 50 in
  let targets = Blas.csrmv x truth in
  let program = Sysml.Dml.parse Sysml.Dml.listing1 in
  (program, [ Script.Matrix (Fusion.Executor.Sparse x); Script.Vector targets ])

let test_listing1_rewrites () =
  let program, positional = listing1_setup () in
  let t = Compiler.compile ~positional device ~inputs:[] program in
  Alcotest.(check bool) "at least one CSE hit" true (Compiler.cse_hits t >= 1);
  Alcotest.(check int) "both t(V) products pushed into X^T*y" 2
    (Compiler.pushdowns t);
  let hoisted_in_loop0 =
    List.fold_left
      (fun acc (loop, n) -> if loop = 0 then acc + n else acc)
      0 (Compiler.hoisted t)
  in
  Alcotest.(check bool) "loop-invariant nodes hoisted out of the CG loop" true
    (hoisted_in_loop0 >= 1)

let test_listing1_instantiation () =
  let program, positional = listing1_setup () in
  let t = Compiler.compile ~positional device ~inputs:[] program in
  let rp = Compiler.execute t in
  Alcotest.(check bool) "planner chose X^T(Xy)+bz" true
    (List.mem Fusion.Pattern.Xt_X_y_plus_z (Compiler.chosen_instantiations t));
  Alcotest.(check bool) "the planned run fused X^T(Xy)+bz" true
    (List.mem Fusion.Pattern.Xt_X_y_plus_z
       (Fusion.Pattern.Trace.instantiations rp.Script.trace))

let test_listing1_all_engines () =
  let program, positional = listing1_setup () in
  List.iter
    (fun (engine, pool) ->
      let ri = Script.eval ~engine ?pool device ~inputs:[] ~positional program in
      let t =
        Compiler.compile ~engine ?pool ~positional device ~inputs:[] program
      in
      let rp = Compiler.execute t in
      Alcotest.(check bool) "planned w = interpreted w" true
        (Vec.approx_equal (Script.lookup_vector ri "w")
           (Script.lookup_vector rp "w")))
    (engine_cases ())

(* ---- rewrite units ------------------------------------------------------ *)

let test_cse_counts () =
  let program =
    [
      Script.Assign
        ("s", Script.Sum (Script.Mul (Script.Var "c", Script.Var "c")));
      Script.Assign
        ( "t",
          Script.Add
            ( Script.Sum (Script.Mul (Script.Var "c", Script.Var "c")),
              Script.Var "s" ) );
    ]
  in
  let t = Compiler.compile device ~inputs program in
  Alcotest.(check bool) "repeated sum(c*c) hits the hash-cons" true
    (Compiler.cse_hits t >= 1);
  let ri = Script.eval device ~inputs program in
  Alcotest.(check bool) "values agree" true (runs_agree ri (Compiler.execute t))

let test_pushdown_counts () =
  let program =
    [
      Script.Assign
        ("g", Script.Matmul (Script.T (Script.Var "X"), Script.Var "r"));
    ]
  in
  let t = Compiler.compile device ~inputs program in
  Alcotest.(check int) "one transpose pushed into the product" 1
    (Compiler.pushdowns t)

(* ---- satellite bugfix: loop-invariant X^T y ----------------------------- *)

let test_hoist_regression () =
  let rng = Rng.create 9 in
  let x = Gen.sparse_uniform rng ~rows:80 ~cols:16 ~density:0.2 in
  let y = Gen.vector rng 80 in
  let inputs =
    [
      ("X", Script.Matrix (Fusion.Executor.Sparse x)); ("y", Script.Vector y);
    ]
  in
  let k = 5 in
  let program =
    [
      Script.Assign ("i", Script.Const 0.0);
      Script.While
        ( Script.Lt (Script.Var "i", Script.Const (float_of_int k)),
          [
            Script.Assign
              ("g", Script.Matmul (Script.T (Script.Var "X"), Script.Var "y"));
            Script.Assign
              ("i", Script.Add (Script.Var "i", Script.Const 1.0));
          ] );
      Script.Write (Script.Var "g", "g");
    ]
  in
  let ri = Script.eval device ~inputs program in
  let t = Compiler.compile device ~inputs program in
  let rp = Compiler.execute t in
  Alcotest.(check int) "interpreter re-resolves X^T y every iteration" k
    (Fusion.Pattern.Trace.count ri.Script.trace Fusion.Pattern.Xt_y);
  Alcotest.(check int) "planner computes the hoisted X^T y once" 1
    (Fusion.Pattern.Trace.count rp.Script.trace Fusion.Pattern.Xt_y);
  Alcotest.(check bool) "planned run issues fewer fused operations" true
    (rp.Script.fused_launches < ri.Script.fused_launches);
  Alcotest.(check bool) "hoist is reported" true
    (List.exists (fun (_, n) -> n >= 1) (Compiler.hoisted t));
  Alcotest.(check bool) "same g" true
    (Vec.approx_equal
       (Script.lookup_vector ri "g")
       (Script.lookup_vector rp "g"))

(* ---- cost model: the paper's worked example ----------------------------- *)

let test_cost_worked_example () =
  (* 500k x 1k sparse matrix from the paper's Section 4 discussion: one
     fused kernel must be estimated cheaper than the library
     composition of the same pattern. *)
  let m =
    {
      Kf_plan.Cost.shape =
        { Kf_plan.Cost.rows = 500_000; cols = 1_000; nnz = 5_000_000; dense = false };
      row_off = None;
    }
  in
  let ms engine =
    Kf_plan.Cost.fused_ms
      (Kf_plan.Cost.create ~engine device)
      m Fusion.Pattern.Full_pattern
  in
  let fused = ms Fusion.Executor.Fused in
  let lib = ms Fusion.Executor.Library in
  Alcotest.(check bool) "estimates are finite and positive" true
    (Float.is_finite fused && fused > 0.0 && Float.is_finite lib && lib > 0.0);
  Alcotest.(check bool) "single fused kernel beats the composition" true
    (fused < lib)

let test_glm_full_pattern () =
  let rng = Rng.create 11 in
  let x = Gen.sparse_uniform rng ~rows:300 ~cols:30 ~density:0.1 in
  let truth = Gen.vector rng 30 in
  let targets = Blas.csrmv x truth in
  let positional =
    [
      Script.Matrix (Fusion.Executor.Sparse x);
      Script.Vector targets;
      Script.Num 0.1;
    ]
  in
  let program = Sysml.Dml.parse Sysml.Dml.glm_listing in
  let t = Compiler.compile ~positional device ~inputs:[] program in
  Alcotest.(check bool) "GLM plan fuses the full pattern" true
    (List.mem Fusion.Pattern.Full_pattern (Compiler.chosen_instantiations t))

(* ---- plans depend only on their arguments ------------------------------ *)

(* A BENCH_host.json in the working directory is not an input: the host
   estimates, and so the chosen groups, are the same beside a skewed
   one. *)
let test_explain_ignores_cwd () =
  let program, positional = listing1_setup () in
  let explain () =
    Compiler.explain
      (Compiler.compile ~engine:Fusion.Executor.Host
         ~pool:(Lazy.force pool1) ~positional device ~inputs:[] program)
  in
  let plain = explain () in
  let dir = Filename.temp_dir "kf-plan" "" in
  let bench = Filename.concat dir "BENCH_host.json" in
  Out_channel.with_open_text bench (fun oc ->
      output_string oc
        {|{"matrix": {"rows": 1000, "cols": 100, "nnz": 1000},
 "sequential_ms": 1000.0,
 "results": [{"variant": "dense-acc", "ms": 900.0, "domains": 2}]}|});
  let cwd = Sys.getcwd () in
  let beside =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Sys.remove bench;
        Sys.rmdir dir)
      (fun () ->
        Sys.chdir dir;
        explain ())
  in
  Alcotest.(check string) "same plan report" plain beside

(* ---- programs without a static plan ------------------------------------ *)

(* Each program's types depend on run-time values, so it compiles to
   [Not_static] naming the construct; the reference interpreter runs it. *)
let test_not_static_runs_on_reference () =
  List.iter
    (fun (source, construct, check) ->
      let program = Sysml.Dml.parse source in
      (match Compiler.compile device ~inputs:[] program with
      | (_ : Compiler.t) -> Alcotest.failf "%s compiled" construct
      | exception Kf_plan.Lower.Not_static reason ->
          Alcotest.(check bool) (reason ^ " names the construct") true
            (Astring.String.is_infix ~affix:construct reason));
      check (List.assoc "out" (Script.eval device ~inputs:[] program).Script.outputs))
    [
      ( {|k = 0; i = 0;
while (i < 3) { k = k + 2; i = i + 1; }
z = matrix(0, rows=k, cols=1);
write(z, "out");|},
        "matrix(0, rows=...)",
        function
        | Script.Vector z -> Alcotest.(check int) "length" 6 (Array.length z)
        | _ -> Alcotest.fail "not a vector" );
      ( {|i = 0; y = 0;
while (i < 2) { if (i > 0) { y = x; } x = 7; i = i + 1; }
write(y, "out");|},
        "variable x is read before its assignment",
        function
        | Script.Num y -> Alcotest.(check (float 0.0)) "y" 7.0 y
        | _ -> Alcotest.fail "not a scalar" );
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_planned_equals_interp;
    Alcotest.test_case "Listing 1: rewrites fire" `Quick test_listing1_rewrites;
    Alcotest.test_case "Listing 1: planner matches the interpreter's fusion"
      `Quick test_listing1_instantiation;
    Alcotest.test_case "Listing 1: planned = interpreted on every engine"
      `Quick test_listing1_all_engines;
    Alcotest.test_case "CSE hit counting" `Quick test_cse_counts;
    Alcotest.test_case "transpose pushdown counting" `Quick test_pushdown_counts;
    Alcotest.test_case "loop-invariant X^T y is hoisted" `Quick
      test_hoist_regression;
    Alcotest.test_case "cost model prefers fusion at 500k x 1k" `Quick
      test_cost_worked_example;
    Alcotest.test_case "GLM plan reaches the full pattern" `Quick
      test_glm_full_pattern;
    Alcotest.test_case "explain ignores BENCH_host.json in the cwd" `Quick
      test_explain_ignores_cwd;
    Alcotest.test_case "no static plan: the reference runs it" `Quick
      test_not_static_runs_on_reference;
  ]
