(* The four workloads: inputs from the repository's generators, seeded
   by [--seed], all on the Host engine.  Each training workload exposes
   one solve and the operands its per-layer probes run on; serve-lr
   exposes a running service and its request payload. *)

open Matrix

let device = Gpu_sim.Device.gtx_titan

let host = Fusion.Executor.Host

(* The calls the traced pass times, one per layer, on this workload's
   own operands. *)
type layers = {
  pool : Par.Pool.t;
  executor_call : unit -> unit;  (** the workload's dominant executor op *)
  kernel_call : unit -> unit;  (** the same op called on its kernel directly *)
  unfused_call : unit -> unit;  (** the unfused (or unbatched) composition *)
  seq_ref_call : unit -> unit;  (** the single-thread reference *)
  kernel_bytes : int;
      (** bytes one kernel call must move, computed from array sizes *)
  kernel_label : string;
  guard_vec : float array;  (** as long as the executor op's output *)
  ckpt : Kf_resil.Ckpt.t;
      (** the checkpoint a solve writes with checkpointing on (only
          logreg-wide's measured solves do), or serve-lr's model file *)
}

type solve = {
  weights : float array;  (** the vector the per-run checksum covers *)
  iterations : int;
  pattern_calls : int;
}

type training = {
  describe : string;
  solve : unit -> solve;
  check : solve -> string option;
      (** [None] when the solve matches the independent sequential
          reference; computed once, outside the timed region *)
  layers : layers;
  vec_len : int;  (** length of the vectors the solver's Level-1 ops see *)
}

let csr_of = function
  | Fusion.Executor.Sparse x -> x
  | Fusion.Executor.Dense _ -> invalid_arg "expected a sparse input"

let pattern_calls trace =
  List.fold_left (fun a (_, n) -> a + n) 0 (Fusion.Pattern.Trace.entries trace)

(* Largest elementwise difference relative to the reference's largest
   magnitude. *)
let rel_diff a ref_ =
  let scale = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 ref_ in
  Vec.max_abs_diff a ref_ /. Float.max scale Float.min_float

let within ~what ~tol d =
  if d <= tol then None
  else Some (Printf.sprintf "%s differs by %.3g (tolerance %g)" what d tol)

(* Compulsory traffic of one CSR sweep: values and column indices
   (8 bytes each as OCaml arrays) plus row offsets. *)
let csr_bytes (x : Csr.t) = (16 * Csr.nnz x) + (8 * (x.rows + 1))

(* Run [fit] once with a checkpoint every iteration and read the file
   back: the payload the ckpt probe rewrites is the one the solver
   writes. *)
let real_ckpt ~path fit =
  ignore (fit (path, 1));
  Kf_resil.Ckpt.read ~path

let eq1_layers ~pool ~x ~v ~beta ~ckpt =
  let cols = x.Csr.cols in
  let p = Gen.vector (Rng.create 7) cols in
  let variant = Fusion.Host_fused.choose_variant ~domains:(Par.Pool.size pool) ~cols () in
  let input = Fusion.Executor.Sparse x in
  {
    pool;
    executor_call =
      (fun () ->
        ignore
          (Fusion.Executor.pattern ~engine:host ~pool device input ~y:p ?v
             ~beta_z:(beta, p) ~alpha:1.0 ()));
    kernel_call =
      (fun () ->
        ignore
          (Fusion.Host_fused.pattern_sparse ~pool ~variant ~alpha:1.0 x ?v p ~beta
             ~z:p ()));
    unfused_call =
      (fun () ->
        ignore (Blas.par_pattern_sparse ~pool ~alpha:1.0 x ?v p ~beta ~z:p ()));
    seq_ref_call =
      (fun () -> ignore (Blas.pattern_sparse ~alpha:1.0 x ?v p ~beta ~z:p ()));
    kernel_bytes =
      csr_bytes x
      + (8 * 3 * cols)
      + (match v with Some _ -> 8 * x.rows | None -> 0);
    kernel_label =
      Printf.sprintf "Host_fused.pattern_sparse [%s, %d domains]"
        (Fusion.Host_fused.variant_name variant)
        (Par.Pool.size pool);
    guard_vec = Array.make cols 1.0;
    ckpt;
  }

(* --- lr-cg-tall ----------------------------------------------------------- *)

let lr_cg_tall ~seed ~dir =
  let d =
    Kf_ml.Dataset.synthetic_sparse ~density:0.01 (Rng.create seed) ~rows:500_000
      ~cols:1024
  in
  let x = csr_of d.features in
  let fit ?checkpoint ?max_iterations () =
    Kf_ml.Linreg_cg.fit ~engine:host ?checkpoint ?max_iterations device d.features
      ~targets:d.targets
  in
  let solve () =
    let r = fit () in
    { weights = r.weights; iterations = r.iterations; pattern_calls = pattern_calls r.trace }
  in
  let check s =
    let r = Kf_ml.Linreg_cg.fit_cpu d.features ~targets:d.targets in
    within ~what:"weights vs Linreg_cg.fit_cpu" ~tol:1e-6 (rel_diff s.weights r.cpu_weights)
  in
  let ckpt =
    real_ckpt ~path:(Filename.concat dir "lr-cg-tall.ckpt") (fun c ->
        fit ~checkpoint:c ~max_iterations:1 ())
  in
  {
    describe =
      Printf.sprintf "X %dx%d, %d nnz (%.1f MB CSR), Linreg_cg.fit tol 1e-6"
        x.rows x.cols (Csr.nnz x)
        (float_of_int (csr_bytes x) /. 1e6);
    solve;
    check;
    layers = eq1_layers ~pool:(Par.Pool.default ()) ~x ~v:None ~beta:0.001 ~ckpt;
    vec_len = x.cols;
  }

(* --- logreg-wide ---------------------------------------------------------- *)

let logreg_wide ~seed ~dir =
  let rng = Rng.create seed in
  let x =
    Gen.sparse_mixture rng ~rows:20_000 ~cols:150_000 ~nnz_per_row:28
      ~hot_fraction:0.3 ~hot_cols:10_000 ()
  in
  (* labels from a planted linear model with noise, as
     [Kf_ml.Dataset] plants its regression targets *)
  let truth = Gen.vector rng x.cols in
  let labels =
    Kf_ml.Dataset.classification_targets
      (Array.map (fun v -> v +. (0.1 *. Rng.gaussian rng)) (Blas.csrmv x truth))
  in
  let input = Fusion.Executor.Sparse x in
  let path = Filename.concat dir "logreg-wide.ckpt" in
  let fit ?checkpoint ~newton_iterations engine =
    Kf_ml.Logreg.fit ~engine ~newton_iterations ?checkpoint device input ~labels
  in
  let solve () =
    let r = fit ~checkpoint:(path, 1) ~newton_iterations:3 host in
    {
      weights = r.weights;
      iterations = r.newton_iterations + r.cg_iterations;
      pattern_calls = pattern_calls r.trace;
    }
  in
  let check s =
    let r = fit ~newton_iterations:3 Fusion.Executor.Library in
    within ~what:"weights vs the Library engine" ~tol:1e-6 (rel_diff s.weights r.weights)
  in
  let ckpt =
    real_ckpt ~path (fun c -> fit ~checkpoint:c ~newton_iterations:1 host)
  in
  (* Hessian weights d = sigma (1 - sigma) at w = 0, as in the first
     Newton step *)
  let v = Array.make x.rows 0.25 in
  {
    describe =
      Printf.sprintf
        "X %dx%d, %d nnz (28/row, hot 0.3 of 10000 cols), Logreg.fit 3 Newton \
         steps, checkpoint every step"
        x.rows x.cols (Csr.nnz x);
    solve;
    check;
    layers = eq1_layers ~pool:(Par.Pool.default ()) ~x ~v:(Some v) ~beta:1.0 ~ckpt;
    vec_len = x.cols;
  }

(* --- graphemb ------------------------------------------------------------- *)

let graphemb ~seed ~dir =
  let rng = Rng.create seed in
  let nodes = 20_000 and dim = 16 in
  let g = Kf_ml.Dataset.adjacency rng ~nodes ~out_degree:16 in
  let h0 = Gen.dense rng ~rows:nodes ~cols:dim in
  let semiring = Fusion.Semiring.sigmoid in
  let inst = Fusion.Fusedmm.Sddmm_spmm in
  let pool = Par.Pool.default () in
  let run ?checkpoint ?iterations () =
    Kf_ml.Graphemb.run ~engine:host ?checkpoint ?iterations device g h0
  in
  let solve () =
    let r = run () in
    {
      weights = r.embedding.data;
      iterations = r.iterations;
      pattern_calls = pattern_calls r.trace;
    }
  in
  let check _ =
    let step =
      match (Fusion.Executor.fusedmm ~engine:host ~pool ~semiring device inst g h0).m_value with
      | Fusion.Executor.Dense z -> z.data
      | Fusion.Executor.Sparse _ -> [||]
    in
    let ref_ = (Fusion.Fusedmm.fused ~semiring inst g h0).data in
    within ~what:"one Executor.fusedmm step vs Fusedmm.fused" ~tol:1e-9
      (Vec.max_abs_diff step ref_)
  in
  let ckpt =
    real_ckpt ~path:(Filename.concat dir "graphemb.ckpt") (fun c ->
        run ~checkpoint:c ~iterations:1 ())
  in
  let layers =
    {
      pool;
      executor_call =
        (fun () -> ignore (Fusion.Executor.fusedmm ~engine:host ~pool ~semiring device inst g h0));
      kernel_call = (fun () -> ignore (Fusion.Host_fused.fusedmm ~pool ~semiring inst g h0));
      unfused_call =
        (fun () ->
          ignore
            (Fusion.Host_fused.spmm ~pool ~semiring
               (Fusion.Host_fused.sddmm ~pool ~semiring g h0)
               h0));
      seq_ref_call = (fun () -> ignore (Fusion.Fusedmm.fused ~semiring inst g h0));
      kernel_bytes = csr_bytes g + (2 * 8 * nodes * dim);
      kernel_label =
        Printf.sprintf "Host_fused.fusedmm [sddmm+spmm sigmoid, %d domains]"
          (Par.Pool.size pool);
      guard_vec = Array.make (nodes * dim) 1.0;
      ckpt;
    }
  in
  {
    describe =
      Printf.sprintf "G %dx%d, %d edges, H %dx%d, Graphemb.run 10 iterations"
        nodes nodes (Csr.nnz g) nodes dim;
    solve;
    check;
    layers;
    vec_len = nodes * dim;
  }

(* --- serve-lr ------------------------------------------------------------- *)

type serving = {
  svc : Kf_serve.Service.t;
  payload : Loadgen.payload;
  s_describe : string;
  s_layers : layers;
}

let serve_cols = 1024

let serve_block = 32

(* A 1,024-column LR model fitted by the sequential CG reference (so no
   pool domain outlives set-up), served by the default adaptive
   configuration on a pool of size 1: the scheduler domain plus the one
   generator thread use the machine's two CPUs. *)
let serve_lr ~seed ~dir =
  let rng = Rng.create seed in
  let train = Kf_ml.Dataset.synthetic_sparse (Rng.split rng) ~rows:20_000 ~cols:serve_cols in
  let w = (Kf_ml.Linreg_cg.fit_cpu train.features ~targets:train.targets).cpu_weights in
  let algo = Kf_ml.Registry.find "lr" in
  let weights = { Kf_ml.Algorithm.vecs = [| w |]; cols = serve_cols; extra = [] } in
  let requests =
    Gen.sparse_uniform rng ~rows:4096 ~cols:serve_cols
      ~density:(10.0 /. float_of_int serve_cols)
  in
  let rows =
    Array.init requests.rows (fun r ->
        let lo = requests.row_off.(r) and hi = requests.row_off.(r + 1) in
        Kf_serve.Service.Sparse_row
          (Array.sub requests.col_idx lo (hi - lo), Array.sub requests.values lo (hi - lo)))
  in
  let expected =
    Kf_ml.Algorithm.predict algo weights (Fusion.Executor.Sparse requests)
  in
  let pool = Par.Pool.create ~size:1 () in
  let svc =
    Kf_serve.Service.create ~engine:host ~pool
      ~config:Kf_serve.Service.default_config device ~algo ~weights ()
  in
  let block = Csr.slice_rows requests ~row_start:0 ~row_count:serve_block in
  let singles =
    Array.init serve_block (fun r -> Csr.slice_rows requests ~row_start:r ~row_count:1)
  in
  let path = Filename.concat dir "serve-lr.model" in
  Kf_resil.Ckpt.write ~path ~algorithm:"lr" ~iteration:0
    (Kf_ml.Algorithm.weights_payload weights);
  let layers =
    {
      pool;
      executor_call =
        (fun () ->
          ignore (Fusion.Executor.x_y ~engine:host ~pool device (Fusion.Executor.Sparse block) w));
      kernel_call = (fun () -> ignore (Blas.par_csrmv ~pool block w));
      unfused_call = (fun () -> Array.iter (fun s -> ignore (Blas.par_csrmv ~pool s w)) singles);
      seq_ref_call = (fun () -> ignore (Blas.csrmv block w));
      kernel_bytes = csr_bytes block + (8 * serve_cols) + (8 * serve_block);
      kernel_label = "Blas.par_csrmv [32-row batch, 1 domain]";
      guard_vec = Array.make serve_block 1.0;
      ckpt = Kf_resil.Ckpt.read ~path;
    }
  in
  {
    svc;
    payload = { Loadgen.rows; expected };
    s_describe =
      Printf.sprintf
        "LR model %d cols, %d request rows of %d nnz, adaptive window, pool size 1"
        serve_cols requests.rows (Csr.row_nnz requests 0);
    s_layers = layers;
  }
