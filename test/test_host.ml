(* Host multicore backend: results must match the sequential reference
   across random matrices x domain counts {1,2,4} x both aggregation
   variants, within floating-point reassociation error (1e-9 relative). *)
open Matrix

let pool1 = lazy (Par.Pool.create ~size:1 ())
let pool2 = lazy (Par.Pool.create ~size:2 ())
let pool4 = lazy (Par.Pool.create ~size:4 ())

let pools () =
  [ (1, Lazy.force pool1); (2, Lazy.force pool2); (4, Lazy.force pool4) ]

let variants = Fusion.Host_fused.variants

let max_abs v = Array.fold_left (fun m x -> Stdlib.max m (abs_float x)) 0.0 v

let close ~what reference w =
  if Array.length reference <> Array.length w then
    QCheck.Test.fail_reportf "%s: length %d <> %d" what
      (Array.length reference) (Array.length w);
  let tol = 1e-9 *. (1.0 +. max_abs reference) in
  Array.iteri
    (fun i r ->
      if abs_float (r -. w.(i)) > tol then
        QCheck.Test.fail_reportf "%s: w.(%d) = %.17g, reference %.17g" what i
          w.(i) r)
    reference;
  true

(* (seed, rows, cols, density, with_v, with_bz, alpha) *)
let sparse_case =
  QCheck.make
    ~print:(fun (seed, r, c, d, v, bz, a) ->
      Printf.sprintf "seed=%d rows=%d cols=%d density=%.3f v=%b bz=%b a=%g"
        seed r c d v bz a)
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* rows = int_range 1 80 in
      let* cols = int_range 1 60 in
      let* density = float_range 0.01 0.4 in
      let* with_v = bool in
      let* with_bz = bool in
      let* alpha = float_range (-2.0) 2.0 in
      return (seed, rows, cols, density, with_v, with_bz, alpha))

let test_sparse_matches =
  QCheck.Test.make ~count:60 ~name:"host pattern_sparse == Blas.pattern_sparse"
    sparse_case
    (fun (seed, rows, cols, density, with_v, with_bz, alpha) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let y = Gen.vector rng cols in
      let v = if with_v then Some (Gen.vector rng rows) else None in
      let beta = if with_bz then Some 0.75 else None in
      let z = if with_bz then Some (Gen.vector rng cols) else None in
      let reference = Blas.pattern_sparse ~alpha x ?v y ?beta ?z () in
      List.for_all
        (fun (d, pool) ->
          List.for_all
            (fun variant ->
              let w =
                Fusion.Host_fused.pattern_sparse ~pool ~variant ~alpha x ?v y
                  ?beta ?z ()
              in
              close
                ~what:
                  (Printf.sprintf "sparse d=%d %s" d
                     (Fusion.Host_fused.variant_name variant))
                reference w)
            variants)
        (pools ()))

let test_dense_matches =
  QCheck.Test.make ~count:40 ~name:"host pattern_dense == Blas.pattern_dense"
    sparse_case
    (fun (seed, rows, cols, _density, with_v, with_bz, alpha) ->
      let rng = Rng.create seed in
      let x = Gen.dense rng ~rows ~cols in
      let y = Gen.vector rng cols in
      let v = if with_v then Some (Gen.vector rng rows) else None in
      let beta = if with_bz then Some (-0.5) else None in
      let z = if with_bz then Some (Gen.vector rng cols) else None in
      let reference = Blas.pattern_dense ~alpha x ?v y ?beta ?z () in
      List.for_all
        (fun (d, pool) ->
          List.for_all
            (fun variant ->
              let w =
                Fusion.Host_fused.pattern_dense ~pool ~variant ~alpha x ?v y
                  ?beta ?z ()
              in
              close
                ~what:
                  (Printf.sprintf "dense d=%d %s" d
                     (Fusion.Host_fused.variant_name variant))
                reference w)
            variants)
        (pools ()))

let test_xt_p_matches =
  QCheck.Test.make ~count:40 ~name:"host xt_p == alpha * Blas.csrmv_t"
    sparse_case
    (fun (seed, rows, cols, density, _v, _bz, alpha) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let p = Gen.vector rng rows in
      let reference = Blas.csrmv_t x p in
      Vec.scal alpha reference;
      List.for_all
        (fun (d, pool) ->
          List.for_all
            (fun variant ->
              let w = Fusion.Host_fused.xt_p ~pool ~variant ~alpha x p in
              close
                ~what:
                  (Printf.sprintf "xt_p d=%d %s" d
                     (Fusion.Host_fused.variant_name variant))
                reference w)
            variants)
        (pools ()))

(* The blocked kernel must agree with the sequential reference whatever
   the tile geometry: single-column tiles (maximal segment overhead),
   small and medium tiles, and a width that does not divide the column
   count (remainder tile), across row-block heights including 1. *)
let tile_case =
  QCheck.make
    ~print:(fun (seed, r, c, d, tr, tc, bz) ->
      Printf.sprintf
        "seed=%d rows=%d cols=%d density=%.3f tile_rows=%d tile_cols=%d bz=%b"
        seed r c d tr tc bz)
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* rows = int_range 1 80 in
      let* cols = int_range 1 70 in
      let* density = float_range 0.01 0.4 in
      let* tile_rows = oneofl [ 1; 8; 64; 33 ] in
      let* tile_cols = oneofl [ 1; 8; 64; 23 ] in
      let* with_bz = bool in
      return (seed, rows, cols, density, tile_rows, tile_cols, with_bz))

let test_blocked_tile_sizes =
  QCheck.Test.make ~count:80
    ~name:"blocked kernel == reference across tile sizes" tile_case
    (fun (seed, rows, cols, density, tile_rows, tile_cols, with_bz) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let xd = Gen.dense rng ~rows ~cols in
      let y = Gen.vector rng cols in
      let beta = if with_bz then Some 0.75 else None in
      let z = if with_bz then Some (Gen.vector rng cols) else None in
      let ref_sparse = Blas.pattern_sparse ~alpha:1.5 x y ?beta ?z () in
      let ref_dense = Blas.pattern_dense ~alpha:1.5 xd y ?beta ?z () in
      List.for_all
        (fun (d, pool) ->
          let tag k =
            Printf.sprintf "blocked %s d=%d tr=%d tc=%d" k d tile_rows
              tile_cols
          in
          close ~what:(tag "sparse") ref_sparse
            (Fusion.Host_fused.pattern_sparse ~pool
               ~variant:Fusion.Host_fused.Blocked ~tile_rows ~tile_cols
               ~alpha:1.5 x y ?beta ?z ())
          && close ~what:(tag "dense") ref_dense
               (Fusion.Host_fused.pattern_dense ~pool
                  ~variant:Fusion.Host_fused.Blocked ~tile_rows ~tile_cols
                  ~alpha:1.5 xd y ?beta ?z ())
          && close ~what:(tag "par_csrmv_t")
               (Blas.csrmv_t x (Gen.vector (Rng.create seed) rows))
               (Blas.par_csrmv_t ~pool ~tile_cols x
                  (Gen.vector (Rng.create seed) rows))
          && close ~what:(tag "par_gemv_t")
               (Blas.gemv_t xd (Gen.vector (Rng.create seed) rows))
               (Blas.par_gemv_t ~pool ~tile_rows ~tile_cols xd
                  (Gen.vector (Rng.create seed) rows)))
        (pools ()))

(* Zero-row / zero-column / empty-nnz shapes short-circuit to the
   epilogue in every variant (and in the blocked parallel BLAS). *)
let test_degenerate_shapes () =
  let empty ~rows ~cols =
    Csr.create ~rows ~cols ~values:[||] ~col_idx:[||]
      ~row_off:(Array.make (rows + 1) 0)
  in
  let shapes =
    [
      ("zero rows", empty ~rows:0 ~cols:5);
      ("zero cols", empty ~rows:4 ~cols:0);
      ("empty nnz", empty ~rows:4 ~cols:5);
    ]
  in
  List.iter
    (fun (what, x) ->
      let y = Array.make x.Csr.cols 1.0 in
      let z = Array.init x.Csr.cols (fun i -> float_of_int (i + 1)) in
      let expect = Array.map (fun zc -> 0.5 *. zc) z in
      List.iter
        (fun (d, pool) ->
          List.iter
            (fun variant ->
              let w =
                Fusion.Host_fused.pattern_sparse ~pool ~variant ~alpha:2.0 x y
                  ~beta:0.5 ~z ()
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s d=%d %s: beta*z survives" what d
                   (Fusion.Host_fused.variant_name variant))
                true
                (Vec.approx_equal ~tol:1e-12 w expect);
              let wt =
                Fusion.Host_fused.xt_p ~pool ~variant ~alpha:2.0 x
                  (Array.make x.Csr.rows 1.0)
              in
              Alcotest.(check int)
                (Printf.sprintf "%s d=%d %s: xt_p length" what d
                   (Fusion.Host_fused.variant_name variant))
                x.Csr.cols (Array.length wt))
            variants;
          let pt = Blas.par_csrmv_t ~pool x (Array.make x.Csr.rows 1.0) in
          Alcotest.(check bool)
            (Printf.sprintf "%s d=%d: par_csrmv_t zeros" what d)
            true
            (Array.for_all (fun v -> v = 0.0) pt))
        (pools ()))
    shapes

let test_par_blas_matches =
  QCheck.Test.make ~count:40 ~name:"parallel BLAS == sequential BLAS"
    sparse_case
    (fun (seed, rows, cols, density, _v, _bz, _a) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let xd = Gen.dense rng ~rows ~cols in
      let y = Gen.vector rng cols in
      let p = Gen.vector rng rows in
      List.for_all
        (fun (d, pool) ->
          let tag s = Printf.sprintf "%s d=%d" s d in
          close ~what:(tag "par_csrmv") (Blas.csrmv x y)
            (Blas.par_csrmv ~pool x y)
          && close ~what:(tag "par_csrmv_t") (Blas.csrmv_t x p)
               (Blas.par_csrmv_t ~pool x p)
          && close ~what:(tag "par_gemv") (Blas.gemv xd y)
               (Blas.par_gemv ~pool xd y)
          && close ~what:(tag "par_gemv_t") (Blas.gemv_t xd p)
               (Blas.par_gemv_t ~pool xd p))
        (pools ()))

(* Deterministic end-to-end checks through the executor and a session. *)

let device = Gpu_sim.Device.gtx_titan

let test_executor_host_engine () =
  let rng = Rng.create 99 in
  let x = Gen.sparse_uniform rng ~rows:3000 ~cols:200 ~density:0.02 in
  let y = Gen.vector rng 200 in
  let v = Gen.vector rng 3000 in
  let z = Gen.vector rng 200 in
  let reference = Blas.pattern_sparse ~alpha:2.0 x ~v y ~beta:0.5 ~z () in
  let r =
    Fusion.Executor.pattern ~engine:Fusion.Executor.Host
      ~pool:(Lazy.force pool2) device (Sparse x) ~y ~v ~beta_z:(0.5, z)
      ~alpha:2.0 ()
  in
  Alcotest.(check bool) "host result matches reference" true
    (Vec.approx_equal ~tol:1e-9 r.Fusion.Executor.w reference);
  Alcotest.(check bool) "no simulated reports" true
    (r.Fusion.Executor.reports = []);
  Alcotest.(check bool) "wall-clock time recorded" true
    (r.Fusion.Executor.time_ms >= 0.0);
  Alcotest.(check bool) "engine string names the host backend" true
    (Astring.String.is_infix ~affix:"host fused sparse"
       r.Fusion.Executor.engine_used)

let test_host_variant_auto_switch () =
  (* A tiny accumulator budget must switch multi-domain runs to the
     owner-computes blocked variant; a large one keeps per-domain dense
     accumulators; a single domain never needs either. *)
  Alcotest.(check bool) "small budget -> blocked" true
    (Fusion.Host_fused.choose_variant ~budget_bytes:64 ~domains:4 ~cols:1000 ()
    = Fusion.Host_fused.Blocked);
  Alcotest.(check bool) "large budget -> dense-acc" true
    (Fusion.Host_fused.choose_variant ~budget_bytes:(1 lsl 30) ~domains:4
       ~cols:1000 ()
    = Fusion.Host_fused.Dense_acc);
  Alcotest.(check bool) "one domain -> dense-acc even on a tiny budget" true
    (Fusion.Host_fused.choose_variant ~budget_bytes:64 ~domains:1 ~cols:1000 ()
    = Fusion.Host_fused.Dense_acc)

let test_blocked_stats_counters () =
  (* The blocked kernel reports its tile structure and the merge
     traffic it eliminated, and still satisfies the rows/nnz
     conservation invariant. *)
  let rng = Rng.create 11 in
  let x = Gen.sparse_uniform rng ~rows:400 ~cols:300 ~density:0.05 in
  let y = Gen.vector rng 300 in
  let pool = Lazy.force pool4 in
  let stats = Kf_obs.Host_stats.create ~domains:4 in
  let reference = Blas.pattern_sparse ~alpha:1.0 x y () in
  let w =
    Kf_obs.Host_stats.with_sink stats (fun () ->
        Fusion.Host_fused.pattern_sparse ~pool
          ~variant:Fusion.Host_fused.Blocked ~tile_cols:64 ~alpha:1.0 x y ())
  in
  Alcotest.(check bool) "result matches reference" true
    (Vec.approx_equal ~tol:1e-9 w reference);
  Alcotest.(check string) "variant recorded" "blocked"
    stats.Kf_obs.Host_stats.variant;
  Alcotest.(check bool) "tiles scattered" true
    (stats.Kf_obs.Host_stats.tiles > 0);
  Alcotest.(check bool) "layout built" true
    (stats.Kf_obs.Host_stats.layout_builds >= 1);
  Alcotest.(check bool) "merge traffic eliminated" true
    (stats.Kf_obs.Host_stats.merge_bytes_saved > 0);
  Alcotest.(check int) "no merge traffic incurred" 0
    stats.Kf_obs.Host_stats.merge_bytes;
  Alcotest.(check int) "rows conserved" 400
    (Kf_obs.Host_stats.total_rows stats);
  Alcotest.(check int) "nnz conserved" (Csr.nnz x)
    (Kf_obs.Host_stats.total_nnz stats)

let test_session_host_lr () =
  (* A whole CG solve on the host engine must converge to the same
     solution as the fused simulation. *)
  let rng = Rng.create 5 in
  let x = Gen.sparse_uniform rng ~rows:2000 ~cols:100 ~density:0.05 in
  let truth = Gen.vector rng 100 in
  let targets = Blas.csrmv x truth in
  let fused =
    Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Fused device (Sparse x)
      ~targets
  in
  let host =
    Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Host device (Sparse x)
      ~targets
  in
  Alcotest.(check bool) "same solution" true
    (Vec.approx_equal ~tol:1e-6 fused.Kf_ml.Linreg_cg.weights
       host.Kf_ml.Linreg_cg.weights);
  Alcotest.(check bool) "host wall-clock accumulated" true
    (host.Kf_ml.Linreg_cg.gpu_ms >= 0.0)

let suite =
  [
    QCheck_alcotest.to_alcotest test_sparse_matches;
    QCheck_alcotest.to_alcotest test_dense_matches;
    QCheck_alcotest.to_alcotest test_xt_p_matches;
    QCheck_alcotest.to_alcotest test_par_blas_matches;
    QCheck_alcotest.to_alcotest test_blocked_tile_sizes;
    Alcotest.test_case "degenerate shapes across variants" `Quick
      test_degenerate_shapes;
    Alcotest.test_case "executor Host engine" `Quick test_executor_host_engine;
    Alcotest.test_case "accumulator budget switches variant" `Quick
      test_host_variant_auto_switch;
    Alcotest.test_case "blocked kernel reports tile stats" `Quick
      test_blocked_stats_counters;
    Alcotest.test_case "LR-CG end-to-end on host" `Quick test_session_host_lr;
  ]
