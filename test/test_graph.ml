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
module Host_fused = Fusion.Host_fused
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
          let a = Semiring.apply_edge sr x and b = Semiring.apply_edge sr x in
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

(* ---- host kernels: one specialised loop per semiring and instantiation -- *)

(* Host_fused.fusedmm runs one of six loops, picked per call from the
   instantiation, the edge function and the operator.  Each copy is
   checked bit for bit: below the dot product's 4-wide unroll the host
   kernels evaluate the sequential reference's float expressions in its
   order, so any slip in a copy (wrong edge, operator or identity) shows
   as a differing bit. *)

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let check_bits ~msg a b =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (same_bits x b.(i)) then
        Alcotest.failf "%s: element %d differs: %h vs %h" msg i x b.(i))
    a

let host_pools () = [ Lazy.force pool1; Lazy.force pool2; Lazy.force pool4 ]

(* Square graph with irregular row lengths, signed values and every
   fifth row empty, so [Max]'s identity and the empty-row zeros are both
   exercised. *)
let irregular_graph ~seed ~nodes =
  let g =
    Gen.sparse_bernoulli (Rng.create seed) ~rows:nodes ~cols:nodes
      ~density:0.08
  in
  let entries = ref [] in
  for r = 0 to nodes - 1 do
    if r mod 5 <> 0 then
      Csr.iter_row g r (fun c v -> entries := (r, c, v) :: !entries)
  done;
  Csr.of_coo (Coo.create ~rows:nodes ~cols:nodes !entries)

(* The second embedding of each dim holds NaNs, which must come out
   where the reference puts them (for [Max] too). *)
let test_host_matches_reference_bits () =
  let g = irregular_graph ~seed:61 ~nodes:90 in
  List.iter
    (fun (dim, poisoned) ->
      let h = embedding ~seed:(62 + dim) ~nodes:90 ~dim in
      if poisoned then List.iter (fun i -> h.Dense.data.(i) <- nan) [ 4; 100 ];
      List.iter
        (fun sr ->
          let name =
            Printf.sprintf "dim %d%s %s" dim
              (if poisoned then " with NaN" else "")
              sr.Semiring.name
          in
          let s_ref = Fusedmm.sddmm ~semiring:sr g h in
          List.iter
            (fun pool ->
              let s = Host_fused.sddmm ~pool ~semiring:sr g h in
              check_bits ~msg:(name ^ " sddmm") s_ref.Csr.values s.Csr.values;
              List.iter
                (fun inst ->
                  let z = Host_fused.fusedmm ~pool ~semiring:sr inst g h in
                  check_bits
                    ~msg:
                      (Printf.sprintf "%s %s, %d domains" name
                         (Fusedmm.inst_key inst) (Par.Pool.size pool))
                    (Fusedmm.fused ~semiring:sr inst g h).Dense.data
                    z.Dense.data)
                Fusedmm.instantiations)
            (host_pools ()))
        Semiring.all)
    [ (1, false); (2, false); (3, false); (2, true); (3, true) ]

(* Above the unroll width the host dot reassociates, but output rows are
   disjoint, so the result must not depend on the domain count: exactly
   equal on 1, 2 and 4 domains, on both sides of each unroll remainder. *)
let test_host_domain_count_invariant () =
  let g = irregular_graph ~seed:71 ~nodes:120 in
  List.iter
    (fun dim ->
      let h = embedding ~seed:(72 + dim) ~nodes:120 ~dim in
      List.iter
        (fun sr ->
          let name what pool =
            Printf.sprintf "dim %d %s %s, %d domains" dim sr.Semiring.name what
              (Par.Pool.size pool)
          in
          let base_s =
            Host_fused.sddmm ~pool:(Lazy.force pool1) ~semiring:sr g h
          in
          List.iter
            (fun pool ->
              check_bits ~msg:(name "sddmm" pool) base_s.Csr.values
                (Host_fused.sddmm ~pool ~semiring:sr g h).Csr.values)
            (host_pools ());
          List.iter
            (fun inst ->
              let run pool = Host_fused.fusedmm ~pool ~semiring:sr inst g h in
              let base = run (Lazy.force pool1) in
              List.iter
                (fun pool ->
                  check_bits ~msg:(name (Fusedmm.inst_key inst) pool)
                    base.Dense.data (run pool).Dense.data)
                (host_pools ()))
            Fusedmm.instantiations)
        Semiring.all)
    [ 1; 3; 4; 5; 16; 17 ]

(* The host kernel inlines its own copy of the logistic; a star graph
   whose centre has embedding 1.0 makes each sampled dot one probe value
   (dim 1), so the standalone SDDMM must return [Semiring.logistic x]
   exactly, at the branch point, the tails and the specials. *)
let test_host_logistic_bits () =
  let xs =
    [| 0.0; -0.0; 1e-300; -1e-300; 0.5; -0.5; 1.0; -1.0; 36.7; -36.7; 709.7;
       -709.7; 745.2; -745.2; 1e308; -1e308; infinity; neg_infinity; nan |]
  in
  let k = Array.length xs in
  let n = k + 1 in
  let g =
    Csr.create ~rows:n ~cols:n ~values:(Array.make k 1.0)
      ~col_idx:(Array.init k (fun i -> i + 1))
      ~row_off:(Array.init (n + 1) (fun r -> if r = 0 then 0 else k))
  in
  let h = Dense.create n 1 in
  h.Dense.data.(0) <- 1.0;
  Array.blit xs 0 h.Dense.data 1 k;
  let s =
    Host_fused.sddmm ~pool:(Lazy.force pool1) ~semiring:Semiring.sigmoid
      g h
  in
  check_bits ~msg:"logistic"
    (Array.map (fun x -> Semiring.logistic (0.0 +. (1.0 *. x))) xs)
    s.Csr.values

(* Likewise for the host's own [Float.max], signed zeros included: one
   maxpool SpMM row per ordered pair of probes, its two edges picking
   the pair from an embedding that holds the probes twice (so column
   indices ascend within each row). *)
let test_host_max_bits () =
  let ps = [| 0.0; -0.0; 1.0; -1.0; 1e-300; infinity; neg_infinity; nan |] in
  let p = Array.length ps in
  let pairs = p * p in
  let s =
    Csr.create ~rows:pairs ~cols:(2 * p)
      ~values:(Array.make (2 * pairs) 1.0)
      ~col_idx:
        (Array.init (2 * pairs) (fun e ->
             let r = e / 2 in
             if e mod 2 = 0 then r / p else p + (r mod p)))
      ~row_off:(Array.init (pairs + 1) (fun r -> 2 * r))
  in
  let h = Dense.create (2 * p) 1 in
  Array.blit ps 0 h.Dense.data 0 p;
  Array.blit ps 0 h.Dense.data p p;
  let sr = Semiring.maxpool in
  check_bits ~msg:"max"
    (Fusedmm.spmm ~semiring:sr s h).Dense.data
    (Host_fused.spmm ~pool:(Lazy.force pool1) ~semiring:sr s h).Dense.data

(* The dispatch happens once per call: at fixed nodes and dim, doubling
   the out-degree (30k edges to 60k; one boxed float per edge would add
   60k words) leaves a call's minor-heap allocation where it was.  Only
   native code unboxes floats. *)
let test_host_no_per_edge_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let pool = Lazy.force pool1 in
    let words f =
      ignore (f ());
      let before = Gc.minor_words () in
      ignore (f ());
      Gc.minor_words () -. before
    in
    let h = embedding ~seed:6_001 ~nodes:6_000 ~dim:5 in
    let case out_degree = (graph ~seed:6_000 ~nodes:6_000 ~out_degree, h) in
    let small = case 5 and large = case 10 in
    List.iter
      (fun sr ->
        let kernels =
          ( "sddmm",
            fun (g, h) -> ignore (Host_fused.sddmm ~pool ~semiring:sr g h) )
          :: List.map
               (fun inst ->
                 ( Fusedmm.inst_key inst,
                   fun (g, h) ->
                     ignore (Host_fused.fusedmm ~pool ~semiring:sr inst g h) ))
               Fusedmm.instantiations
        in
        List.iter
          (fun (name, k) ->
            let s = words (fun () -> k small)
            and l = words (fun () -> k large) in
            if l > s +. 64.0 then
              Alcotest.failf "%s %s: %.0f words for %d edges vs %.0f for %d"
                sr.Semiring.name name l
                (Csr.nnz (fst large)) s
                (Csr.nnz (fst small)))
          kernels)
      Semiring.all
  end

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
  let parse raw =
    Result.map_error Kf_obs.Env.message
      (Kf_obs.Env.parse Executor.engine_var raw)
  in
  Alcotest.(check bool) "unset" true (parse "" = Ok None);
  Alcotest.(check bool) "KF_ENGINE-style parse" true
    (parse "Host" = Ok (Some Executor.Host));
  Alcotest.(check bool) "uniform message" true
    (parse "tpu"
    = Error
        "kf: KF_ENGINE must be one of fused, library, host, dist, got \"tpu\"")

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
  let session =
    Kf_ml.Session.create ~checkpoint:(path, 1) device ~algorithm:"graph-test"
  in
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
  Alcotest.(check bool) "state restored" true
    (Kf_ml.Session.state ~resume:path restored []);
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
      (* the plan fuses the sigmoid chain; the reference runs it unfused *)
      Alcotest.(check int)
        (case_name engine pool ^ ": planned fused launches")
        1 rp.Script.fused_launches;
      Alcotest.(check int)
        (case_name engine pool ^ ": reference fused launches")
        0 ri.Script.fused_launches;
      Alcotest.(check int)
        (case_name engine pool ^ ": planned chain traced")
        1
        (Fusion.Pattern.Trace.desc_count rp.Script.trace
           (Fusion.Fusedmm.descriptor ~semiring:"sigmoid"
              Fusion.Fusedmm.Sddmm_spmm));
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
    (Sysml.Script.Type_error
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
    Alcotest.test_case "host kernels match the reference bit for bit" `Quick
      test_host_matches_reference_bits;
    Alcotest.test_case "host kernels ignore the domain count" `Quick
      test_host_domain_count_invariant;
    Alcotest.test_case "host logistic matches Semiring.logistic" `Quick
      test_host_logistic_bits;
    Alcotest.test_case "host max matches Float.max" `Quick test_host_max_bits;
    Alcotest.test_case "host kernels allocate nothing per edge" `Quick
      test_host_no_per_edge_allocation;
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
