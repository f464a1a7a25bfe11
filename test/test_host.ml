(* Host multicore backend: results must match the sequential reference
   across random matrices x domain counts {1,2,4}, within floating-point
   reassociation error (1e-9 relative). *)
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

(* A wide shape, 140,000 columns, at 2 and 4 domains: there each
   domain's full-width accumulator and the tree merge outgrow a 2 MiB
   L2. *)
let wide_pools () = List.filter (fun (d, _) -> d > 1) (pools ())

let wide_sparse () =
  Gen.sparse_uniform (Rng.create 140) ~rows:40 ~cols:140_000 ~density:1e-4

(* [QCheck_alcotest.to_alcotest test], then [wide ()] in the same case. *)
let with_wide_case test wide =
  let name, speed, run = QCheck_alcotest.to_alcotest test in
  ( name,
    speed,
    fun () ->
      run ();
      Alcotest.(check bool) "wide case" true (wide ()) )

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

let wide_sparse_matches () =
  let x = wide_sparse () in
  let rng = Rng.create 141 in
  let y = Gen.vector rng x.Csr.cols and v = Gen.vector rng x.Csr.rows in
  let z = Gen.vector rng x.Csr.cols in
  let reference = Blas.pattern_sparse ~alpha:1.5 x ~v y ~beta:0.75 ~z () in
  List.for_all
    (fun (d, pool) ->
      close
        ~what:(Printf.sprintf "wide sparse d=%d" d)
        reference
        (Fusion.Host_fused.pattern_sparse ~pool ~alpha:1.5 x ~v y ~beta:0.75 ~z
           ()))
    (wide_pools ())

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

let wide_dense_matches () =
  let rng = Rng.create 142 in
  let x = Gen.dense rng ~rows:8 ~cols:140_000 in
  let y = Gen.vector rng x.Dense.cols and v = Gen.vector rng x.Dense.rows in
  let z = Gen.vector rng x.Dense.cols in
  let reference = Blas.pattern_dense ~alpha:1.5 x ~v y ~beta:0.75 ~z () in
  List.for_all
    (fun (d, pool) ->
      close
        ~what:(Printf.sprintf "wide dense d=%d" d)
        reference
        (Fusion.Host_fused.pattern_dense ~pool ~alpha:1.5 x ~v y ~beta:0.75 ~z
           ()))
    (wide_pools ())

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

let wide_xt_p_matches () =
  let x = wide_sparse () in
  let p = Gen.vector (Rng.create 143) x.Csr.rows in
  let reference = Blas.csrmv_t x p in
  Vec.scal (-0.5) reference;
  List.for_all
    (fun (d, pool) ->
      close
        ~what:(Printf.sprintf "wide xt_p d=%d" d)
        reference
        (Fusion.Host_fused.xt_p ~pool ~alpha:(-0.5) x p))
    (wide_pools ())

(* The fused X^T*p and the parallel library's transposed product run one
   kernel, so on the same pool they agree bit for bit. *)
let same_bits ~what a b =
  if Array.length a <> Array.length b then
    QCheck.Test.fail_reportf "%s: length %d <> %d" what (Array.length a)
      (Array.length b);
  Array.iteri
    (fun i ai ->
      if Int64.bits_of_float ai <> Int64.bits_of_float b.(i) then
        QCheck.Test.fail_reportf "%s: w.(%d) = %h vs %h" what i ai b.(i))
    a;
  true

let xt_p_is_par_csrmv_t ~pools x p =
  List.for_all
    (fun (d, pool) ->
      same_bits
        ~what:(Printf.sprintf "d=%d" d)
        (Fusion.Host_fused.xt_p ~pool ~alpha:1.0 x p)
        (Blas.par_csrmv_t ~pool x p))
    pools

let test_xt_p_is_par_csrmv_t =
  QCheck.Test.make ~count:40 ~name:"host xt_p == Blas.par_csrmv_t bit for bit"
    sparse_case
    (fun (seed, rows, cols, density, _v, _bz, _a) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      xt_p_is_par_csrmv_t ~pools:(pools ()) x (Gen.vector rng rows))

let wide_xt_p_is_par_csrmv_t () =
  let x = wide_sparse () in
  xt_p_is_par_csrmv_t ~pools:(pools ()) x
    (Gen.vector (Rng.create 144) x.Csr.rows)

(* Zero-row / zero-column / empty-nnz shapes short-circuit to the
   epilogue (and the parallel BLAS returns zeros on them). *)
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

let test_par_csrmv_t_stats () =
  (* Each of 4 domains allocates one full-width accumulator, the tree
     merge reads and writes 24 bytes per column in each of its 3
     pairwise merges, and the domains' rows and nnz add up to the
     matrix's. *)
  let rng = Rng.create 11 in
  let x = Gen.sparse_uniform rng ~rows:400 ~cols:300 ~density:0.05 in
  let p = Gen.vector rng 400 in
  let stats = Kf_obs.Host_stats.create ~domains:4 in
  let w =
    Kf_obs.Host_stats.with_sink stats (fun () ->
        Blas.par_csrmv_t ~pool:(Lazy.force pool4) x p)
  in
  Alcotest.(check bool) "result matches reference" true
    (Vec.approx_equal ~tol:1e-9 w (Blas.csrmv_t x p));
  Alcotest.(check int) "one accumulator per domain" 4
    stats.Kf_obs.Host_stats.acc_allocations;
  Alcotest.(check int) "accumulator bytes" (4 * 8 * 300)
    stats.Kf_obs.Host_stats.acc_bytes;
  Alcotest.(check int) "merge bytes" (3 * 24 * 300)
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

(* The Equation-1 kernels and the parallel BLAS compute each row's
   scalar inline: a call's minor-heap allocation must not grow with the
   row count (one boxed float per row would be 60k words here).  Arrays
   of more than 256 words go straight to the major heap, so the result
   vectors do not count.  [Gc.minor] makes every domain publish its
   tally, so [quick_stat] counts the pool's other domains too.  Only
   native code unboxes floats. *)
let test_eq1_no_per_row_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let minor_words () =
      Gc.minor ();
      (Gc.quick_stat ()).Gc.minor_words
    in
    let words f =
      ignore (f ());
      let before = minor_words () in
      ignore (f ());
      minor_words () -. before
    in
    let case rows =
      let rng = Rng.create rows in
      let x = Gen.sparse_uniform rng ~rows ~cols:16 ~density:0.125 in
      let xd = Gen.dense rng ~rows ~cols:16 in
      (x, xd, Gen.vector rng 16, Gen.vector rng rows)
    in
    let small = case 300 and large = case 30_000 in
    List.iter
      (fun (d, pool) ->
        let kernels =
          [
            ( "pattern_sparse",
              fun (x, _, y, _) ->
                Fusion.Host_fused.pattern_sparse ~pool ~alpha:1.0 x y () );
            ( "pattern_sparse ~v",
              fun (x, _, y, v) ->
                Fusion.Host_fused.pattern_sparse ~pool ~alpha:1.0 x ~v y () );
            ( "pattern_dense ~v",
              fun (_, xd, y, v) ->
                Fusion.Host_fused.pattern_dense ~pool ~alpha:1.0 xd ~v y () );
            ( "xt_p",
              fun (x, _, _, p) -> Fusion.Host_fused.xt_p ~pool ~alpha:1.0 x p );
            ("par_csrmv", fun (x, _, y, _) -> Blas.par_csrmv ~pool x y);
            ("par_gemv", fun (_, xd, y, _) -> Blas.par_gemv ~pool xd y);
            ("par_csrmv_t", fun (x, _, _, p) -> Blas.par_csrmv_t ~pool x p);
            ("par_gemv_t", fun (_, xd, _, p) -> Blas.par_gemv_t ~pool xd p);
          ]
        in
        List.iter
          (fun (name, k) ->
            let s = words (fun () -> k small)
            and l = words (fun () -> k large) in
            if l > s +. 64.0 then
              Alcotest.failf "%s d=%d: %.0f words for %d rows vs %.0f for %d"
                name d l 30_000 s 300)
          kernels)
      [ (1, Lazy.force pool1); (2, Lazy.force pool2) ]
  end

(* ---- fixed-memory solves: reused accumulators and [?into] ---- *)

(* Recovery attempts so far (KF_FAULTS): a solve that moved this re-ran
   ops, possibly on the reference, which allocates fresh vectors. *)
let recoveries () =
  Kf_obs.Counter.value (Kf_obs.Counter.make "resil.retries")
  + Kf_obs.Counter.value (Kf_obs.Counter.make "resil.fallbacks")

(* Major-heap words a call allocates.  OCaml 5.1 adds a domain's direct
   major allocations to [quick_stat]'s count only when a major slice
   runs, which a [Gc.minor] does not always start (a lone one sometimes
   left a whole solve's words to the next reading): a full major
   collection before each reading makes the count exact.  The first
   call grows the calling domain's accumulators; the second is
   measured. *)
let major_words f =
  let major () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.major_words
  in
  ignore (f ());
  let before = major () and r0 = recoveries () in
  let r = f () in
  (major () -. before, r, recoveries () = r0)

(* A host solve keeps its vectors across iterations: two solves that
   differ only in their CG iteration count allocate within one vector
   of each other.  1,024 columns put every vector (1,025 words) on the
   major heap, where arrays of more than 256 words go. *)
let test_solve_memory_is_fixed () =
  let rng = Rng.create 1024 in
  let cols = 1024 and rows = 3000 in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density:0.01 in
  let input = Fusion.Executor.Sparse x in
  let truth = Gen.vector rng cols in
  let raw = Blas.csrmv x truth in
  let labels = Kf_ml.Dataset.classification_targets raw in
  let counts = Array.map (fun t -> Float.round (exp (0.2 *. t))) raw in
  let host = Fusion.Executor.Host in
  (* each solver with its short and long iteration budget, returning
     the iterations it ran *)
  let solvers =
    [
      ( "Linreg_cg.fit", (5, 15),
        fun n ->
          (Kf_ml.Linreg_cg.fit ~engine:host ~max_iterations:n device input
             ~targets:raw)
            .Kf_ml.Linreg_cg.iterations );
      (* a strong regulariser keeps the Newton step inside the initial
         trust region, so Steihaug runs its budget instead of stopping
         at the boundary *)
      ( "Logreg.fit", (2, 10),
        fun n ->
          (Kf_ml.Logreg.fit ~engine:host ~lambda:1000.0 ~tolerance:1e-14
             ~newton_iterations:1 ~cg_iterations:n device input ~labels)
            .Kf_ml.Logreg.cg_iterations );
      ( "Glm.fit", (2, 10),
        fun n ->
          (Kf_ml.Glm.fit ~engine:host ~newton_iterations:1 ~cg_iterations:n
             device input ~targets:counts)
            .Kf_ml.Glm.cg_iterations );
      ( "Svm.fit", (2, 10),
        fun n ->
          (Kf_ml.Svm.fit ~engine:host ~newton_iterations:1 ~cg_iterations:n
             device input ~labels)
            .Kf_ml.Svm.cg_iterations );
    ]
  in
  List.iter
    (fun (name, (few, many), solve) ->
      let short, it_short, clean_short = major_words (fun () -> solve few) in
      let long, it_long, clean_long = major_words (fun () -> solve many) in
      if it_short >= it_long then
        Alcotest.failf "%s: %d and %d iterations do not differ" name it_short
          it_long;
      if clean_short && clean_long && Float.abs (long -. short) > 1025.0 then
        Alcotest.failf
          "%s: %.0f major words at %d iterations vs %.0f at %d (more than one \
           vector apart)"
          name long it_long short it_short)
    solvers

let square =
  lazy (Gen.sparse_uniform (Rng.create 33) ~rows:24 ~cols:24 ~density:0.3)

(* [~into] on every engine returns [into] itself, bit-equal to the same
   call without it; an [into] that is an input is refused. *)
let test_into_contract () =
  let x = Lazy.force square in
  let xd = Gen.dense (Rng.create 34) ~rows:24 ~cols:24 in
  let rng = Rng.create 35 in
  let y = Gen.vector rng 24 and v = Gen.vector rng 24 in
  let z = Gen.vector rng 24 in
  let engines =
    Fusion.Executor.
      [
        ("fused", Fused, None);
        ("library", Library, None);
        ("host d=1", Host, Some (Lazy.force pool1));
        ("host d=2", Host, Some (Lazy.force pool2));
      ]
  in
  let ops =
    [
      ( "X^T(Xy)",
        fun into e pool i ->
          Fusion.Executor.pattern ~engine:e ?pool ?into device i ~y ~alpha:1.5
            () );
      ( "X^T(v.(Xy))+bz",
        fun into e pool i ->
          Fusion.Executor.pattern ~engine:e ?pool ?into device i ~y ~v
            ~beta_z:(0.5, z) ~alpha:1.5 () );
      ( "X^T(Xy)+bz",
        fun into e pool i ->
          Fusion.Executor.pattern ~engine:e ?pool ?into device i ~y
            ~beta_z:(0.5, z) ~alpha:(-1.0) () );
      ( "X^T y",
        fun into e pool i ->
          Fusion.Executor.xt_y ~engine:e ?pool ?into device i y ~alpha:0.25 );
    ]
  in
  List.iter
    (fun (ename, engine, pool) ->
      List.iter
        (fun input ->
          List.iter
            (fun (oname, op) ->
              let what = Printf.sprintf "%s on %s" oname ename in
              let fresh = (op None engine pool input).Fusion.Executor.w in
              let into = Array.make 24 nan in
              let w = (op (Some into) engine pool input).Fusion.Executor.w in
              Alcotest.(check bool) (what ^ ": returns into") true (w == into);
              ignore (same_bits ~what fresh into))
            ops;
          List.iter
            (fun (aname, into) ->
              match
                Fusion.Executor.pattern ~engine ?pool ~into device input ~y ~v
                  ~beta_z:(0.5, z) ~alpha:1.0 ()
              with
              | _ -> Alcotest.failf "into = %s accepted on %s" aname ename
              | exception Invalid_argument _ -> ())
            [ ("y", y); ("v", v); ("z", z) ];
          match
            Fusion.Executor.xt_y ~engine ?pool ~into:y device input y ~alpha:1.0
          with
          | _ -> Alcotest.failf "xt_y into = y accepted on %s" ename
          | exception Invalid_argument _ -> ())
        [ Fusion.Executor.Sparse x; Fusion.Executor.Dense xd ])
    engines

(* A poisoned first attempt is retried into the same [into]: the result
   equals the fault-free one. *)
let test_into_nan_recovery () =
  let x = Lazy.force square in
  let rng = Rng.create 36 in
  let y = Gen.vector rng 24 and z = Gen.vector rng 24 in
  List.iter
    (fun (d, pool) ->
      let run () =
        let into = Array.make 24 0.0 in
        let r =
          Fusion.Executor.pattern ~engine:Fusion.Executor.Host ~pool ~into
            device (Sparse x) ~y ~beta_z:(0.5, z) ~alpha:1.0 ()
        in
        Alcotest.(check bool) "returns into" true (r.Fusion.Executor.w == into);
        into
      in
      let clean = Kf_resil.Fault.with_config "" run in
      let before = recoveries () in
      let healed = Kf_resil.Fault.with_config "nan:after=0:times=1" run in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: a recovery ran" d)
        true
        (recoveries () > before);
      ignore (same_bits ~what:(Printf.sprintf "d=%d healed" d) clean healed))
    [ (1, Lazy.force pool1); (2, Lazy.force pool2) ]

(* Two domains call kernels on one shared pool at once.  The
   accumulators belong to the calling domain, so an op that runs
   between another's scatter and merge jobs cannot touch its partials:
   every result equals the same call made alone. *)
let test_shared_pool_two_callers () =
  let rng = Rng.create 37 in
  let x = Gen.sparse_uniform rng ~rows:400 ~cols:300 ~density:0.05 in
  let x' = Gen.sparse_uniform rng ~rows:300 ~cols:500 ~density:0.05 in
  let y = Gen.vector rng 300 and y' = Gen.vector rng 500 in
  let z = Gen.vector rng 300 in
  List.iter
    (fun (d, pool) ->
      let a () =
        Fusion.Host_fused.pattern_sparse ~pool ~alpha:1.0 x y ~beta:0.5 ~z ()
      in
      let b () = Fusion.Host_fused.pattern_sparse ~pool ~alpha:2.0 x' y' () in
      let want_a = a () and want_b = b () in
      let calls who f want =
        let what = Printf.sprintf "d=%d caller %d" d who in
        for _ = 1 to 200 do
          ignore (same_bits ~what (f ()) want)
        done
      in
      let other = Domain.spawn (fun () -> calls 2 b want_b) in
      Fun.protect
        ~finally:(fun () -> Domain.join other)
        (fun () -> calls 1 a want_a))
    [ (2, Lazy.force pool2); (4, Lazy.force pool4) ]

(* A Host session launches no kernel: its Level-1 work runs on the
   calling domain, and only the executor ops' measured wall-clock
   counts as device time, so no iteration issues launches or more
   device time than it took.  Every registered solver, on the host. *)
let test_host_timeline_measured () =
  let rng = Rng.create 61 in
  let x = Gen.sparse_uniform rng ~rows:400 ~cols:24 ~density:0.2 in
  let raw = Blas.csrmv x (Gen.vector rng 24) in
  let problem = { Kf_ml.Algorithm.device; input = Sparse x; raw; seed = 61 } in
  let cfg =
    {
      Kf_ml.Algorithm.default_cfg with
      engine = Fusion.Executor.Host;
      max_iterations = Some 3;
    }
  in
  List.iter
    (fun (module A : Kf_ml.Algorithm.S) ->
      let r = A.train ~cfg problem in
      if r.timeline = [] then Alcotest.failf "%s: empty timeline" A.name;
      List.iter
        (fun (it : Kf_ml.Session.iteration) ->
          let wall_ms = Kf_obs.Clock.ns_to_ms it.it_wall_ns in
          if it.it_launches <> 0 || it.it_device_ms > wall_ms then
            Alcotest.failf
              "%s iteration %d: %d launches, device %.6f ms, wall %.6f ms"
              A.name it.it_index it.it_launches it.it_device_ms wall_ms)
        r.timeline)
    Kf_ml.Registry.all

let suite =
  [
    with_wide_case test_sparse_matches wide_sparse_matches;
    with_wide_case test_dense_matches wide_dense_matches;
    with_wide_case test_xt_p_matches wide_xt_p_matches;
    with_wide_case test_xt_p_is_par_csrmv_t wide_xt_p_is_par_csrmv_t;
    QCheck_alcotest.to_alcotest test_par_blas_matches;
    Alcotest.test_case "degenerate shapes across variants" `Quick
      test_degenerate_shapes;
    Alcotest.test_case "executor Host engine" `Quick test_executor_host_engine;
    Alcotest.test_case "par_csrmv_t reports accumulator stats" `Quick
      test_par_csrmv_t_stats;
    Alcotest.test_case "LR-CG end-to-end on host" `Quick test_session_host_lr;
    Alcotest.test_case "Equation-1 kernels allocate nothing per row" `Quick
      test_eq1_no_per_row_allocation;
    Alcotest.test_case "solve memory does not grow with CG iterations" `Quick
      test_solve_memory_is_fixed;
    Alcotest.test_case "into is the result on every engine" `Quick
      test_into_contract;
    Alcotest.test_case "into survives a nan retry" `Quick
      test_into_nan_recovery;
    Alcotest.test_case "two callers share one pool" `Quick
      test_shared_pool_two_callers;
    Alcotest.test_case "host session timelines launch nothing" `Quick
      test_host_timeline_measured;
  ]
