(* The fusedmm pattern family (SDDMM ⊕ SpMM over a semiring): the
   semiring laws the fused kernels rely on, differential agreement of
   the fused chain with the unfused composition on every engine and
   pool size, the family registry round-trips, the engine-name parser,
   and the plan compiler's enumeration/selection of fused graph
   candidates. *)
open Matrix
module Script = Sysml.Script
module Compiler = Kf_plan.Compiler
module Executor = Fusion.Executor
module Semiring = Fusion.Semiring
module Fusedmm = Fusion.Fusedmm
module PF = Fusion.Pattern_family

let device = Gpu_sim.Device.gtx_titan

(* ---- shared inputs ----------------------------------------------------- *)

let graph ~seed ~nodes ~out_degree =
  Kf_ml.Dataset.adjacency (Rng.create seed) ~nodes ~out_degree

let embedding ~seed ~nodes ~dim = Gen.dense (Rng.create seed) ~rows:nodes ~cols:dim

(* Host pools are shared across cases (spawning domains per case would
   dominate the run). *)
let pool1 = lazy (Par.Pool.create ~size:1 ())

let pool2 = lazy (Par.Pool.create ~size:2 ())

let pool4 = lazy (Par.Pool.create ~size:4 ())

let engine_cases () =
  [
    (Executor.Fused, None);
    (Executor.Library, None);
    (Executor.Host, Some (Lazy.force pool1));
    (Executor.Host, Some (Lazy.force pool2));
    (Executor.Host, Some (Lazy.force pool4));
  ]

let case_name engine pool =
  match pool with
  | None -> Executor.engine_to_string engine
  | Some p ->
      Printf.sprintf "%s/%d domains"
        (Executor.engine_to_string engine)
        (Par.Pool.size p)

let check_close ~msg ~tol (a : Dense.t) (b : Dense.t) =
  Alcotest.(check int) (msg ^ ": rows") a.Dense.rows b.Dense.rows;
  Alcotest.(check int) (msg ^ ": cols") a.Dense.cols b.Dense.cols;
  Array.iteri
    (fun i x ->
      let y = b.Dense.data.(i) in
      if Float.abs (x -. y) > tol then
        Alcotest.failf "%s: element %d differs: %.17g vs %.17g" msg i x y)
    a.Dense.data

(* ---- semiring laws (qcheck) -------------------------------------------- *)

(* The fused kernels merge per-domain / per-block partials in arbitrary
   order, so [op] must be associative and commutative with a neutral
   identity, and [edge] must be a pure function. *)

let finite_float = QCheck.float_range (-1e6) 1e6

let prop_op_assoc_comm =
  QCheck.Test.make ~name:"op is associative and commutative" ~count:300
    QCheck.(triple finite_float finite_float finite_float)
    (fun (a, b, c) ->
      List.for_all
        (fun sr ->
          let ( + ) = Semiring.combine sr in
          a + b = b + a && a + (b + c) = a + b + c
          || (* Sum is only associative to rounding *)
          sr.Semiring.op = Semiring.Sum
          && Float.abs ((a + (b + c)) -. (a + b + c))
             <= 1e-9 *. Float.max 1.0 (Float.abs (a + b + c)))
        Semiring.all)

let prop_op_identity =
  QCheck.Test.make ~name:"identity is neutral for op" ~count:300 finite_float
    (fun a ->
      List.for_all
        (fun sr ->
          let id = Semiring.identity sr in
          Semiring.combine sr a id = a && Semiring.combine sr id a = a)
        Semiring.all)

let prop_edge_pure =
  QCheck.Test.make ~name:"edge is pure and finite on finite input"
    ~count:300 finite_float (fun x ->
      List.for_all
        (fun sr ->
          let a = sr.Semiring.edge x and b = sr.Semiring.edge x in
          a = b && Float.is_finite a)
        Semiring.all)

let prop_sigmoid_stable =
  QCheck.Test.make ~name:"sigmoid edge is bounded and stable" ~count:300
    (QCheck.float_range (-1e8) 1e8)
    (fun x ->
      let y = Semiring.logistic x in
      Float.is_finite y && y >= 0.0 && y <= 1.0)

(* ---- differential: fused vs unfused, all engines ------------------------ *)

(* The oracle is the sequential unfused composition; every engine's
   fused chain must agree within 1e-9.  (The sequential fused kernel is
   additionally bit-identical, which [test_fusion] does not cover —
   asserted exactly here.) *)

let test_fused_bit_identical () =
  let g = graph ~seed:11 ~nodes:60 ~out_degree:6 in
  let h = embedding ~seed:12 ~nodes:60 ~dim:7 in
  List.iter
    (fun sr ->
      let unfused = Fusedmm.spmm ~semiring:sr (Fusedmm.sddmm ~semiring:sr g h) h in
      let fused = Fusedmm.fused ~semiring:sr Fusedmm.Sddmm_spmm g h in
      check_close ~msg:("bit-identical " ^ sr.Semiring.name) ~tol:0.0 unfused
        fused)
    Semiring.all

let test_engines_agree () =
  let g = graph ~seed:21 ~nodes:80 ~out_degree:5 in
  let h = embedding ~seed:22 ~nodes:80 ~dim:9 in
  List.iter
    (fun sr ->
      let oracle =
        Fusedmm.spmm ~semiring:sr (Fusedmm.sddmm ~semiring:sr g h) h
      in
      List.iter
        (fun (engine, pool) ->
          List.iter
            (fun inst ->
              let oracle =
                match inst with
                | Fusedmm.Sddmm_spmm -> oracle
                | Fusedmm.Spmm -> Fusedmm.spmm ~semiring:sr g h
              in
              let r = Executor.fusedmm ~engine ?pool ~semiring:sr device inst g h in
              let z =
                match r.Executor.m_value with
                | Executor.Dense d -> d
                | Executor.Sparse _ -> Alcotest.fail "fusedmm returned sparse"
              in
              check_close
                ~msg:
                  (Printf.sprintf "%s %s %s" (case_name engine pool)
                     sr.Semiring.name (Fusedmm.inst_key inst))
                ~tol:1e-9 oracle z)
            Fusedmm.instantiations)
        (engine_cases ()))
    Semiring.all

let test_sddmm_engines_agree () =
  let g = graph ~seed:31 ~nodes:50 ~out_degree:4 in
  let h = embedding ~seed:32 ~nodes:50 ~dim:6 in
  List.iter
    (fun sr ->
      let oracle = Fusedmm.sddmm ~semiring:sr g h in
      List.iter
        (fun (engine, pool) ->
          let r = Executor.sddmm ~engine ?pool ~semiring:sr device g h in
          match r.Executor.m_value with
          | Executor.Sparse s ->
              Alcotest.(check int) "nnz" (Csr.nnz oracle) (Csr.nnz s);
              Array.iteri
                (fun i x ->
                  if Float.abs (x -. s.Csr.values.(i)) > 1e-9 then
                    Alcotest.failf "sddmm %s %s: value %d differs"
                      (case_name engine pool) sr.Semiring.name i)
                oracle.Csr.values
          | Executor.Dense _ -> Alcotest.fail "sddmm returned dense")
        (engine_cases ()))
    Semiring.all

let prop_differential_random_graphs =
  (* random shapes/degrees/semirings, fused (sim) vs unfused oracle *)
  QCheck.Test.make ~name:"fused agrees with unfused on random graphs"
    ~count:40
    QCheck.(
      quad (int_range 1 40) (int_range 1 8) (int_range 1 12) (int_range 0 2))
    (fun (nodes, out_degree, dim, sri) ->
      let sr = List.nth Semiring.all sri in
      let out_degree = min out_degree nodes in
      let g = graph ~seed:(nodes + (7 * out_degree)) ~nodes ~out_degree in
      let h = embedding ~seed:(dim + 3) ~nodes ~dim in
      let oracle =
        Fusedmm.spmm ~semiring:sr (Fusedmm.sddmm ~semiring:sr g h) h
      in
      let r =
        Executor.fusedmm ~engine:Executor.Fused ~semiring:sr device
          Fusedmm.Sddmm_spmm g h
      in
      match r.Executor.m_value with
      | Executor.Dense z ->
          Array.for_all2
            (fun a b -> Float.abs (a -. b) <= 1e-9)
            oracle.Dense.data z.Dense.data
      | Executor.Sparse _ -> false)

(* ---- warp max reduction ------------------------------------------------- *)

let test_tree_reduce_max () =
  Alcotest.(check (float 0.0)) "max of 8" 9.5
    (Gpu_sim.Warp.tree_reduce_op ~op:Float.max
       [| 1.0; -2.0; 9.5; 0.0; 3.0; 9.4; -7.0; 2.0 |]
       ~width:8);
  Alcotest.(check (float 0.0)) "identity lanes" 4.0
    (Gpu_sim.Warp.tree_reduce_op ~op:Float.max
       [| neg_infinity; 4.0; neg_infinity; neg_infinity |]
       ~width:4)

(* ---- family registry ---------------------------------------------------- *)

let test_registry_round_trip () =
  let all = PF.all_instantiations () in
  Alcotest.(check bool) "eq1 and fusedmm both registered" true
    (List.exists (fun d -> d.PF.family = "eq1") all
    && List.exists (fun d -> d.PF.family = Fusedmm.family_id) all);
  (* eq1 registered first: checkpoints serialise counts positionally *)
  (match all with
  | d :: _ -> Alcotest.(check string) "eq1 leads" "eq1" d.PF.family
  | [] -> Alcotest.fail "no families registered");
  List.iter
    (fun d ->
      match PF.of_key (PF.key d) with
      | Some d' -> Alcotest.(check string) ("key " ^ PF.key d) d.PF.label d'.PF.label
      | None -> Alcotest.failf "of_key failed for %s" (PF.key d))
    all;
  Alcotest.(check (option reject)) "unknown key" None
    (PF.of_key "nosuch/family")

let test_fusedmm_descriptor_round_trip () =
  List.iter
    (fun sr ->
      List.iter
        (fun inst ->
          let d = Fusedmm.descriptor ~semiring:sr.Semiring.name inst in
          Alcotest.(check string) "family" Fusedmm.family_id d.PF.family;
          match Fusedmm.of_descriptor d with
          | Some (inst', sr') ->
              Alcotest.(check bool) "instantiation" true (inst = inst');
              Alcotest.(check string) "semiring" sr.Semiring.name
                sr'.Semiring.name
          | None -> Alcotest.failf "of_descriptor failed for %s" (PF.key d))
        Fusedmm.instantiations)
    Semiring.all;
  (* eq1 descriptors are not fusedmm's *)
  List.iter
    (fun inst ->
      Alcotest.(check bool) "eq1 rejected" true
        (Fusedmm.of_descriptor (Fusion.Pattern.descriptor inst) = None))
    Fusion.Pattern.all

(* ---- engine-name parsing ------------------------------------------------ *)

let test_engine_names () =
  List.iter
    (fun e ->
      let s = Executor.engine_to_string e in
      Alcotest.(check bool) ("round-trip " ^ s) true
        (Executor.engine_of_string s = Some e);
      Alcotest.(check bool) ("case/trim " ^ s) true
        (Executor.engine_of_string ("  " ^ String.uppercase_ascii s ^ " ")
        = Some e))
    Executor.engines;
  Alcotest.(check bool) "unknown" true (Executor.engine_of_string "cuda" = None);
  Alcotest.(check bool) "empty" true (Executor.engine_of_string "" = None)

let test_env_engine () =
  Alcotest.(check (result (option reject) string))
    "unset" (Ok None)
    (Result.map
       (Option.map (fun _ -> assert false))
       (Sysml.Env.engine_result "KF_TEST_GRAPH_UNSET"));
  Unix.putenv "KF_TEST_GRAPH_ENGINE" "Host";
  (match Sysml.Env.engine_result "KF_TEST_GRAPH_ENGINE" with
  | Ok (Some Executor.Host) -> ()
  | _ -> Alcotest.fail "KF_ENGINE-style parse failed");
  Unix.putenv "KF_TEST_GRAPH_ENGINE" "tpu";
  match Sysml.Env.engine_result "KF_TEST_GRAPH_ENGINE" with
  | Error msg ->
      Alcotest.(check bool) "uniform message" true
        (Astring.String.is_infix ~affix:"KF_TEST_GRAPH_ENGINE" msg)
  | Ok _ -> Alcotest.fail "malformed engine accepted"

(* ---- classify_shape --------------------------------------------------- *)

let test_classify_shape () =
  let open Fusion.Pattern in
  Alcotest.(check bool) "full" true
    (classify_shape
       { first_multiply = true; weighted = true; additive_tail = true }
    = Full_pattern);
  Alcotest.(check bool) "xt_y" true
    (classify_shape
       { first_multiply = false; weighted = false; additive_tail = false }
    = Xt_y);
  Alcotest.(check bool) "weighted" true
    (classify_shape
       { first_multiply = true; weighted = true; additive_tail = false }
    = Xt_v_X_y)

(* ---- session trace and checkpoint round-trip ---------------------------- *)

let test_session_trace_and_checkpoint () =
  let g = graph ~seed:41 ~nodes:40 ~out_degree:4 in
  let h = embedding ~seed:42 ~nodes:40 ~dim:5 in
  let path = Filename.temp_file "kf_graph_ckpt" ".bin" in
  let session = Kf_ml.Session.create device ~algorithm:"graph-test" in
  Kf_ml.Session.set_checkpoint session ~path ~every:1;
  Kf_ml.Session.set_state_fn session (fun () -> []);
  Kf_ml.Session.iteration session (fun () ->
      ignore (Kf_ml.Session.fusedmm ~semiring:Semiring.sigmoid session
                Fusedmm.Sddmm_spmm g h);
      ignore (Kf_ml.Session.fusedmm ~semiring:Semiring.plain session
                Fusedmm.Spmm g h);
      ignore
        (Kf_ml.Session.xt_y session (Executor.Sparse g)
           (Array.make 40 1.0) ~alpha:1.0));
  let entries = Fusion.Pattern.Trace.entries (Kf_ml.Session.trace session) in
  let count key =
    match List.find_opt (fun (d, _) -> PF.key d = key) entries with
    | Some (_, n) -> n
    | None -> 0
  in
  Alcotest.(check int) "sigmoid chain traced" 1
    (count "fusedmm/sddmm_spmm:sigmoid");
  Alcotest.(check int) "plain floor traced" 1 (count "fusedmm/spmm:plain");
  Alcotest.(check int) "eq1 traced alongside" 1 (count "eq1/xt_y");
  (* the family counts survive a checkpoint round-trip *)
  let restored = Kf_ml.Session.create device ~algorithm:"graph-test" in
  ignore (Kf_ml.Session.resume restored ~path);
  let entries' = Fusion.Pattern.Trace.entries (Kf_ml.Session.trace restored) in
  Alcotest.(check bool) "trace round-trips" true (entries = entries');
  Sys.remove path

(* ---- plan compiler: enumeration, selection, execution ------------------- *)

let graph_positional ~nodes ~dim =
  let g = graph ~seed:51 ~nodes ~out_degree:6 in
  let h = embedding ~seed:52 ~nodes ~dim in
  [
    Script.Matrix (Executor.Sparse g);
    Script.Matrix (Executor.Dense h);
  ]

let test_plan_enumerates_fused_graph () =
  let program = Sysml.Dml.parse Sysml.Dml.graph_listing in
  let positional = graph_positional ~nodes:120 ~dim:8 in
  let t = Compiler.compile device ~inputs:[] ~positional program in
  let descs = List.map PF.key (Compiler.chosen_descriptors t) in
  Alcotest.(check bool) "fused sddmm+spmm chosen" true
    (List.mem "fusedmm/sddmm_spmm:sigmoid" descs);
  Alcotest.(check bool) "aggregation floor chosen for R" true
    (List.mem "fusedmm/spmm:plain" descs);
  (* the fused chain beat the enumerated unfused floor on cost *)
  let fused_group =
    List.find
      (fun gr ->
        gr.Kf_plan.Fuse.g_chosen.Kf_plan.Fuse.c_desc.PF.inst
        = "sddmm_spmm:sigmoid")
      (Compiler.groups t)
  in
  (match fused_group.Kf_plan.Fuse.g_rejected with
  | [ floor ] ->
      Alcotest.(check bool) "fused est < unfused est" true
        (fused_group.Kf_plan.Fuse.g_chosen.Kf_plan.Fuse.c_total_ms
        < floor.Kf_plan.Fuse.c_total_ms)
  | l -> Alcotest.failf "expected one rejected floor, got %d" (List.length l));
  (* eq1-only accessor skips graph groups *)
  Alcotest.(check int) "no eq1 instantiations" 0
    (List.length (Compiler.chosen_instantiations t));
  (* explain names the family instantiations *)
  let report = Compiler.explain t in
  Alcotest.(check bool) "explain mentions the chain" true
    (Astring.String.is_infix ~affix:"sddmm+spmm[sigmoid]" report)

let test_plan_matches_eval () =
  let program = Sysml.Dml.parse Sysml.Dml.graph_listing in
  let positional = graph_positional ~nodes:90 ~dim:6 in
  List.iter
    (fun (engine, pool) ->
      let t = Compiler.compile ~engine ?pool device ~inputs:[] ~positional program in
      let rp = Compiler.execute t in
      let ri = Script.eval ~engine ?pool device ~inputs:[] ~positional program in
      Alcotest.(check int)
        (case_name engine pool ^ ": fused launches agree")
        ri.Script.fused_launches rp.Script.fused_launches;
      List.iter
        (fun name ->
          let find (r : Script.run) =
            match List.assoc_opt name r.Script.outputs with
            | Some (Script.Matrix (Executor.Dense d)) -> d
            | _ -> Alcotest.failf "output %s missing or not dense" name
          in
          check_close
            ~msg:(case_name engine pool ^ ": output " ^ name)
            ~tol:1e-9 (find ri) (find rp))
        [ "Z"; "R" ])
    (engine_cases ())

let test_plan_rejects_unknown_semiring () =
  let program = Sysml.Dml.parse "Z = spmm($1, $2, \"fourier\"); write(Z, \"Z\");" in
  let positional = graph_positional ~nodes:20 ~dim:4 in
  Alcotest.check_raises "unknown semiring"
    (Kf_plan.Ir.Type_error
       "unknown semiring \"fourier\" (available: plain, sigmoid, maxpool)")
    (fun () -> ignore (Compiler.compile device ~inputs:[] ~positional program))

let suite =
  [
    Alcotest.test_case "fused chain is bit-identical to unfused" `Quick
      test_fused_bit_identical;
    Alcotest.test_case "all engines agree with the oracle" `Quick
      test_engines_agree;
    Alcotest.test_case "sddmm agrees across engines" `Quick
      test_sddmm_engines_agree;
    Alcotest.test_case "warp max tree reduction" `Quick test_tree_reduce_max;
    Alcotest.test_case "family registry round-trips" `Quick
      test_registry_round_trip;
    Alcotest.test_case "fusedmm descriptors round-trip" `Quick
      test_fusedmm_descriptor_round_trip;
    Alcotest.test_case "engine names parse and print" `Quick test_engine_names;
    Alcotest.test_case "KF_ENGINE-style env parsing" `Quick test_env_engine;
    Alcotest.test_case "classify_shape names each shape" `Quick
      test_classify_shape;
    Alcotest.test_case "session traces and checkpoints family counts" `Quick
      test_session_trace_and_checkpoint;
    Alcotest.test_case "plan enumerates and selects the fused chain" `Quick
      test_plan_enumerates_fused_graph;
    Alcotest.test_case "planned graph execution matches eval" `Quick
      test_plan_matches_eval;
    Alcotest.test_case "plan rejects unknown semirings" `Quick
      test_plan_rejects_unknown_semiring;
    QCheck_alcotest.to_alcotest prop_op_assoc_comm;
    QCheck_alcotest.to_alcotest prop_op_identity;
    QCheck_alcotest.to_alcotest prop_edge_pure;
    QCheck_alcotest.to_alcotest prop_sigmoid_stable;
    QCheck_alcotest.to_alcotest prop_differential_random_graphs;
  ]
