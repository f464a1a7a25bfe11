(* Combinatorial consistency: every pattern instantiation must produce
   the same numbers through every execution path — fused or library
   engine, sparse or dense layout, any device, resident or streamed.
   This is the repository's strongest single guarantee: whatever the
   dispatcher decides, the mathematics cannot change. *)
open Matrix
open Gpu_sim

let devices = [ Device.gtx_titan; Device.tesla_k20x; Device.gtx_680 ]

let case seed ~rows ~cols =
  let rng = Rng.create seed in
  let sparse = Gen.sparse_uniform rng ~rows ~cols ~density:0.15 in
  let dense = Csr.to_dense sparse in
  let y = Gen.vector rng cols in
  let v = Gen.vector rng rows in
  let z = Gen.vector rng cols in
  (sparse, dense, y, v, z)

(* the five instantiations of Table 1 as argument shapes *)
let instantiations (v, z) =
  [
    ("X^T(Xy)", None, None);
    ("X^T(v.(Xy))", Some v, None);
    ("X^T(Xy)+bz", None, Some (0.7, z));
    ("full", Some v, Some (0.7, z));
  ]

let test_engine_layout_grid () =
  let sparse, dense, y, v, z = case 42 ~rows:120 ~cols:30 in
  List.iter
    (fun (name, v', beta_z) ->
      (* reference on the sparse layout *)
      let beta = Option.map fst beta_z and zz = Option.map snd beta_z in
      let expected =
        Blas.pattern_sparse ~alpha:1.3 sparse ?v:v' y ?beta ?z:zz ()
      in
      List.iter
        (fun device ->
          List.iter
            (fun engine ->
              List.iter
                (fun input ->
                  let r =
                    Fusion.Executor.pattern ~engine device input ~y ?v:v'
                      ?beta_z ~alpha:1.3 ()
                  in
                  let label =
                    Printf.sprintf "%s / %s / %s" name
                      device.Device.name r.Fusion.Executor.engine_used
                  in
                  Alcotest.(check bool) label true
                    (Vec.approx_equal ~tol:1e-7 r.Fusion.Executor.w expected))
                [ Fusion.Executor.Sparse sparse; Fusion.Executor.Dense dense ])
            [ Fusion.Executor.Fused; Fusion.Executor.Library ])
        devices)
    (instantiations (v, z))

let test_streamed_equals_resident () =
  let sparse, _, y, v, z = case 43 ~rows:400 ~cols:25 in
  List.iter
    (fun (name, v', beta_z) ->
      let resident, _, _ =
        Fusion.Fused_sparse.pattern Device.gtx_titan sparse ~y ?v:v' ?beta_z
          ~alpha:2.0 ()
      in
      let streamed =
        Fusion.Streaming.pattern
          ~device_budget_bytes:(Csr.bytes sparse / 5)
          Device.gtx_titan sparse ~y ?v:v' ?beta_z ~alpha:2.0 ()
      in
      Alcotest.(check bool) name true
        (Vec.approx_equal ~tol:1e-7 resident streamed.Fusion.Streaming.w))
    (instantiations (v, z))

let test_script_equals_executor () =
  (* the DML route through the plan compiler's fusion must agree with a
     direct Executor call on the very same instantiation *)
  let sparse, _, y, v, z = case 44 ~rows:150 ~cols:20 in
  let input = Fusion.Executor.Sparse sparse in
  let direct =
    Fusion.Executor.pattern Device.gtx_titan input ~y ~v ~beta_z:(0.7, z)
      ~alpha:1.3 ()
  in
  let open Sysml.Script in
  let program =
    [
      Assign
        ( "w",
          Add
            ( Mul
                ( Const 1.3,
                  Matmul (T (Var "X"), Mul (Var "v", Matmul (Var "X", Var "y")))
                ),
              Mul (Const 0.7, Var "z") ) );
    ]
  in
  let r =
    Kf_plan.Compiler.execute
      (Kf_plan.Compiler.compile Device.gtx_titan
         ~inputs:
           [
             ("X", Matrix input); ("y", Vector y); ("v", Vector v); ("z", Vector z);
           ]
         program)
  in
  Alcotest.(check int) "one fused call" 1 r.fused_launches;
  Alcotest.(check bool) "script = executor" true
    (Vec.approx_equal ~tol:1e-9 (lookup_vector r "w") direct.Fusion.Executor.w)

let prop_grid_random =
  QCheck.Test.make ~name:"random shapes: engines and layouts agree" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let rows = 20 + Rng.int rng 150 in
      let cols = 4 + Rng.int rng 60 in
      let sparse, dense, y, v, z = case (seed + 7) ~rows ~cols in
      let f input engine =
        (Fusion.Executor.pattern ~engine Device.gtx_titan input ~y ~v
           ~beta_z:(0.5, z) ~alpha:1.1 ())
          .Fusion.Executor.w
      in
      let reference = f (Sparse sparse) Fusion.Executor.Fused in
      List.for_all
        (Vec.approx_equal ~tol:1e-7 reference)
        [
          f (Sparse sparse) Fusion.Executor.Library;
          f (Dense dense) Fusion.Executor.Fused;
          f (Dense dense) Fusion.Executor.Library;
        ])

let suite =
  [
    Alcotest.test_case "engine x layout x device grid" `Quick
      test_engine_layout_grid;
    Alcotest.test_case "streamed = resident (all instantiations)" `Quick
      test_streamed_equals_resident;
    Alcotest.test_case "script = executor" `Quick test_script_equals_executor;
    QCheck_alcotest.to_alcotest prop_grid_random;
  ]
