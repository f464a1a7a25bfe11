(* Per-operator and per-fused-group cost estimates, one backend per
   engine:

   - [Fused] / [Library] (simulated GPU): synthetic byte / atomic / flop
     counts fed through the existing {!Gpu_sim.Cost_model} roofline, with
     occupancy from the Section 3.3 tuning model ({!Fusion.Tuning}) —
     shape-only, so the paper's 500k x 1k worked example can be costed
     without materialising 5M non-zeros.  A [Library] fused call is
     priced as the cuSPARSE/cuBLAS composition it would actually run.
   - [Host]: a stream-bandwidth model over the *maximum per-domain byte
     share* ({!Par.Partition.by_prefix} over the real [row_off] when the
     plan is compiled against a sparse input, uniform otherwise), plus a
     per-job dispatch overhead, with the constants of [default_host].

   Absolute numbers only need to be *ordered* usefully: the plan chooser
   compares candidates under one model, and a per-operator bookkeeping
   charge (the [Sysml.Runtime] default) breaks ties toward larger fusion
   groups — which is how fusion still wins under [Library], where a
   fused call costs the same kernels as the composition it replaces. *)

open Gpu_sim

type shape = { rows : int; cols : int; nnz : int; dense : bool }

type mat = { shape : shape; row_off : int array option }

let shape_of_input (i : Fusion.Executor.input) =
  {
    rows = Fusion.Executor.rows i;
    cols = Fusion.Executor.cols i;
    nnz = Fusion.Executor.nnz i;
    dense = (match i with Fusion.Executor.Dense _ -> true | Fusion.Executor.Sparse _ -> false);
  }

let mat_of_input (i : Fusion.Executor.input) =
  {
    shape = shape_of_input i;
    row_off =
      (match i with
      | Fusion.Executor.Sparse csr -> Some csr.Matrix.Csr.row_off
      | Fusion.Executor.Dense _ -> None);
  }

let matrix_bytes s =
  if s.dense then s.rows * s.cols * 8 else (s.nnz * 12) + ((s.rows + 1) * 4)

(* --- host parameters ----------------------------------------------------- *)

type host_params = {
  stream_gbs : float;  (** per-domain sustained stream bandwidth *)
  par_efficiency : float;  (** fraction of linear scaling across domains *)
  dispatch_ms : float;  (** per parallel job dispatch overhead *)
}

let default_host = { stream_gbs = 6.0; par_efficiency = 0.7; dispatch_ms = 0.02 }

(* --- context ------------------------------------------------------------- *)

type ctx = {
  engine : Fusion.Executor.engine;
  device : Device.t;
  host : host_params;
  domains : int;
  overhead_ms : float;  (** per-operator bookkeeping; tie-breaker *)
  workers : int;
  net : Kf_dist.Netmodel.t;
}

let create ?(overhead_ms = 0.05) ?(domains = 1) ?workers ?net ~engine device =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> (
        match engine with
        | Fusion.Executor.Dist -> Kf_dist.Cluster.default_size ()
        | _ -> 1)
  in
  let net =
    match net with Some n -> n | None -> Kf_dist.Netmodel.of_env ()
  in
  { engine; device; host = default_host; domains; overhead_ms; workers; net }

(* --- simulated-GPU occupancy --------------------------------------------- *)

let generic_occupancy d =
  Occupancy.calculate d ~block_size:256 ~regs_per_thread:32 ~shared_per_block:0

let block_candidates = List.init 32 (fun i -> (i + 1) * 32)

(* Occupancy of the fused sparse kernel, recomputed from the shape alone
   (the Tuning entry point wants a materialised Csr.t): VS from Eq. 4's
   mean row density, shared memory per Section 3.2's layout, registers
   from the paper's profiled 43. *)
let sparse_fused_occupancy d s =
  let mu = float_of_int s.nnz /. float_of_int (max 1 s.rows) in
  let vs = Fusion.Tuning.sparse_vector_size mu in
  let large_n = s.cols > Fusion.Tuning.max_shared_columns d in
  let shared ~block_size =
    if large_n then block_size / vs * 8 else ((block_size / vs) + s.cols) * 8
  in
  try
    let _bs, occ =
      Occupancy.best_block_size d
        ~regs_per_thread:Fusion.Tuning.sparse_kernel_registers
        ~shared_per_block:shared ~candidates:block_candidates
    in
    (occ, large_n)
  with Invalid_argument _ -> (generic_occupancy d, true)

let fused_occupancy d s =
  if s.dense then
    try ((Fusion.Tuning.dense_plan d ~rows:s.rows ~cols:s.cols).dp_occupancy, false)
    with _ -> (generic_occupancy d, false)
  else sparse_fused_occupancy d s

let device_fill (d : Device.t) (occ : Occupancy.result) =
  max 1 (occ.active_blocks_per_sm * d.num_sms)

(* --- host roofline ------------------------------------------------------- *)

(* Time for one parallel job whose busiest domain streams [max_share]
   bytes; [total] only matters through the share. *)
let host_job_ms h ~max_share =
  (max_share /. (h.stream_gbs *. h.par_efficiency *. 1e6)) +. h.dispatch_ms

let host_uniform_ms ctx bytes =
  host_job_ms ctx.host
    ~max_share:(float_of_int bytes /. float_of_int (max 1 ctx.domains))

(* Busiest domain's share of the matrix under the nnz-balanced split the
   host backend actually uses. *)
let host_matrix_share ctx m =
  match m.row_off with
  | Some prefix when not m.shape.dense && ctx.domains > 1 ->
      let bounds =
        Par.Partition.by_prefix ~prefix ~parts:ctx.domains ()
      in
      let max_nnz = ref 0 in
      for k = 0 to ctx.domains - 1 do
        let nnz = prefix.(bounds.(k + 1)) - prefix.(bounds.(k)) in
        if nnz > !max_nnz then max_nnz := nnz
      done;
      float_of_int ((!max_nnz * 12) + (m.shape.rows / ctx.domains * 4))
  | _ -> float_of_int (matrix_bytes m.shape) /. float_of_int (max 1 ctx.domains)

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* --- dist roofline -------------------------------------------------------- *)

(* Busiest worker's shard share in bytes, under the same nnz-balanced
   row split the cluster uses. *)
let dist_share ctx m =
  host_matrix_share { ctx with domains = max 1 ctx.workers } m

(* Gather volume of the cheaper allreduce layout for one length-cols
   partial per worker — the same [Netmodel.choose_mode] decision the
   cluster makes from its exact touch maps, priced here from the
   uniform-occupancy estimate (the compiler costs candidate shards
   before any data moves). *)
let dist_gather_bytes ctx s =
  let w = max 1 ctx.workers in
  let b1 = Kf_dist.Netmodel.bytes_1d ~workers:w ~cols:s.cols in
  if s.dense then b1
  else
    let b15 =
      Kf_dist.Netmodel.bytes_15d_estimate ~workers:w ~cols:s.cols ~nnz:s.nnz
        ~block_cols:(Kf_dist.Netmodel.block_cols_of_env ())
    in
    min b1 b15

(* One distributed op end to end: scatter the per-worker inputs, stream
   the slowest shard sequentially (workers compute with the
   single-domain reference BLAS — no dispatch charge, no
   parallel-efficiency discount), gather, and reduce the gathered
   partials coordinator-side. *)
let dist_ms ctx m ~scatter_bytes ~gather_bytes ~passes ~vec_bytes =
  let w = max 1 ctx.workers in
  (* 1 GB/s streams 1000 bytes per microsecond *)
  let stream_us bytes = bytes /. (ctx.host.stream_gbs *. 1e3) in
  let compute_us =
    stream_us ((float_of_int passes *. dist_share ctx m)
               +. float_of_int vec_bytes)
  in
  (Kf_dist.Netmodel.op_us ctx.net ~workers:w ~scatter_bytes ~gather_bytes
     ~compute_us
  +. stream_us (float_of_int gather_bytes))
  /. 1e3

(* --- operator costs ------------------------------------------------------ *)

(* Streaming vector operation over [n] elements. *)
let vec_ms ctx ~n ~reads ~writes ~flops =
  match ctx.engine with
  | Fusion.Executor.Host ->
      host_uniform_ms ctx (((reads + writes) * n * 8) + 1)
  | Fusion.Executor.Dist ->
      (* vector work stays at the coordinator (epilogues, BLAS-1): a
         plain sequential stream, no dispatch and no network. *)
      float_of_int (((reads + writes) * n * 8) + 1)
      /. (ctx.host.stream_gbs *. 1e6)
  | Fusion.Executor.Fused | Fusion.Executor.Library ->
      let occ = generic_occupancy ctx.device in
      let grid = max 1 (min (device_fill ctx.device occ) (n / 256 + 1)) in
      (Cost_model.estimate ctx.device ~occupancy:occ ~grid_blocks:grid
         ~load_bytes:(reads * n * 8) ~store_bytes:(writes * n * 8) ~flops ())
        .total_ms

let x_y_ms ctx m =
  let s = m.shape in
  match ctx.engine with
  | Fusion.Executor.Host ->
      host_job_ms ctx.host
        ~max_share:(host_matrix_share ctx m
                    +. float_of_int ((s.cols + s.rows) * 8 / max 1 ctx.domains))
  | Fusion.Executor.Dist ->
      (* every worker needs the full length-cols y; the row-disjoint
         result gathers without a reduce. *)
      let w = max 1 ctx.workers in
      dist_ms ctx m
        ~scatter_bytes:(w * s.cols * 8)
        ~gather_bytes:(s.rows * 8) ~passes:1
        ~vec_bytes:((s.cols + (s.rows / w)) * 8)
  | Fusion.Executor.Fused | Fusion.Executor.Library ->
      let occ = generic_occupancy ctx.device in
      let grid = max 1 (min (device_fill ctx.device occ) (s.rows / 256 + 1)) in
      (Cost_model.estimate ctx.device ~occupancy:occ ~grid_blocks:grid
         ~load_bytes:(matrix_bytes s + (s.cols * 8))
         ~store_bytes:(s.rows * 8) ~flops:(2 * s.nnz) ())
        .total_ms

let xt_y_ms ctx m =
  let s = m.shape in
  match ctx.engine with
  | Fusion.Executor.Dist ->
      (* y is length-rows, so its slices scatter disjointly; the gather
         is the 1D-vs-1.5D allreduce choice. *)
      let w = max 1 ctx.workers in
      dist_ms ctx m
        ~scatter_bytes:(s.rows * 8)
        ~gather_bytes:(dist_gather_bytes ctx s)
        ~passes:1
        ~vec_bytes:(((s.rows / w) + s.cols) * 8)
  | Fusion.Executor.Host ->
      (* per-domain full-width accumulators (zeroed + written) plus the
         tree merge's critical path: ceil(log2 d) pairwise merges at 24
         bytes per element. *)
      let d = max 1 ctx.domains in
      host_job_ms ctx.host
        ~max_share:(host_matrix_share ctx m
                    +. float_of_int (s.rows * 8 / d)
                    +. float_of_int ((s.cols * 8) + (s.cols * 24 * ceil_log2 d)))
  | Fusion.Executor.Fused | Fusion.Executor.Library ->
      let occ, large_n = fused_occupancy ctx.device s in
      let grid = device_fill ctx.device occ in
      (Cost_model.estimate ctx.device ~occupancy:occ ~grid_blocks:grid
         ~load_bytes:(matrix_bytes s + (s.rows * 8))
         ~store_bytes:(s.cols * 8)
         ~dram_atomics:(if large_n then s.cols * grid / 8 else s.cols)
         ~flops:(2 * s.nnz) ())
        .total_ms

(* One fused Equation 1 call covering the given instantiation: a single
   pass over the matrix under [Fused] and [Host]; the library composition
   it stands for under [Library]. *)
let fused_ms ctx m (inst : Fusion.Pattern.instantiation) =
  let s = m.shape in
  let with_fm, with_v, with_z =
    match inst with
    | Fusion.Pattern.Xt_y -> (false, false, false)
    | Fusion.Pattern.Xt_X_y -> (true, false, false)
    | Fusion.Pattern.Xt_v_X_y -> (true, true, false)
    | Fusion.Pattern.Xt_X_y_plus_z -> (true, false, true)
    | Fusion.Pattern.Full_pattern -> (true, true, true)
  in
  match ctx.engine with
  | Fusion.Executor.Dist ->
      (* the whole instantiation is one distributed op: full y to every
         worker when the first multiply is present (it is length-cols),
         a disjoint slice otherwise; v scatters disjointly; two shard
         passes for X^T(v .* (X y)); the beta*z epilogue is
         coordinator-side vector work. *)
      let w = max 1 ctx.workers in
      let scatter_bytes =
        (if with_fm then w * s.cols * 8 else s.rows * 8)
        + if with_v then s.rows * 8 else 0
      in
      let vec_bytes =
        ((s.rows / w * if with_v then 2 else 1) + s.cols) * 8
      in
      dist_ms ctx m ~scatter_bytes
        ~gather_bytes:(dist_gather_bytes ctx s)
        ~passes:(if with_fm then 2 else 1)
        ~vec_bytes
      +.
      if with_z then vec_ms ctx ~n:s.cols ~reads:2 ~writes:1 ~flops:(2 * s.cols)
      else 0.0
  | Fusion.Executor.Library ->
      (* the composition Session.pattern would launch *)
      (if with_fm then x_y_ms ctx m else 0.0)
      +. (if with_v then vec_ms ctx ~n:s.rows ~reads:2 ~writes:1 ~flops:s.rows
          else 0.0)
      +. xt_y_ms ctx m
      +. (if with_z then vec_ms ctx ~n:s.cols ~reads:2 ~writes:1 ~flops:(2 * s.cols)
          else 0.0)
  | Fusion.Executor.Host ->
      (* one matrix walk with per-domain accumulators, then the merge
         critical path. *)
      let d = max 1 ctx.domains in
      let vec_bytes =
        (if with_fm then s.cols * 8 else s.rows * 8)
        + (if with_v then s.rows * 8 else 0)
        + if with_z then s.cols * 8 else 0
      in
      host_job_ms ctx.host
        ~max_share:(host_matrix_share ctx m
                    +. float_of_int (vec_bytes / d)
                    +. float_of_int ((s.cols * 8) + (s.cols * 24 * ceil_log2 d)))
  | Fusion.Executor.Fused ->
      if s.dense && s.cols > 8 * Fusion.Tuning.max_dense_thread_load then
        (* the executor's documented fallback: two cuBLAS launches *)
        x_y_ms ctx m +. xt_y_ms ctx m
      else
        let occ, large_n = fused_occupancy ctx.device s in
        let grid = device_fill ctx.device occ in
        let load =
          matrix_bytes s
          + (if with_fm then s.cols * 8 else s.rows * 8)
          + (if with_v then s.rows * 8 else 0)
          + if with_z then s.cols * 8 else 0
        in
        let flops = (if with_fm then 4 else 2) * s.nnz in
        (Cost_model.estimate ctx.device ~occupancy:occ ~grid_blocks:grid
           ~load_bytes:load ~store_bytes:(s.cols * 8)
           ~dram_atomics:(if large_n then s.cols * grid / 8 else s.cols)
           ~flops ())
          .total_ms

(* --- graph operator costs (the fusedmm family) ----------------------------

   Rooflines over a sparse nodes x nodes graph and a width-[d] dense
   embedding.  The dominant terms: every kernel walks the CSR structure
   once and gathers width-[d] embedding rows per edge; SDDMM stores one
   sampled value per edge, SpMM stores one width-[d] row per node.  The
   fused chain pays the structure walk and the gathers once and never
   touches an S array — exactly the traffic the unfused composition
   spends on materialising and re-reading it. *)

let gather_bytes s ~d = s.nnz * d * 8

let graph_sim ctx s ~load ~store ~flops =
  let occ = generic_occupancy ctx.device in
  let grid = max 1 (min (device_fill ctx.device occ) ((s.rows / 256) + 1)) in
  (Cost_model.estimate ctx.device ~occupancy:occ ~grid_blocks:grid
     ~load_bytes:load ~store_bytes:store ~flops ())
    .total_ms

(* [Host] streams the same bytes through the domain pool; [Dist] has no
   cluster graph kernels and dispatches the host tier at runtime, so it
   is priced identically. *)
let graph_ms ctx s ~load ~store ~flops =
  match ctx.engine with
  | Fusion.Executor.Host | Fusion.Executor.Dist ->
      host_uniform_ms ctx (load + store)
  | Fusion.Executor.Fused | Fusion.Executor.Library ->
      graph_sim ctx s ~load ~store ~flops

let sddmm_ms ctx m ~d =
  let s = m.shape in
  graph_ms ctx s
    ~load:(matrix_bytes s + (2 * gather_bytes s ~d))
    ~store:(s.nnz * 8)
    ~flops:(s.nnz * ((2 * d) + 4))

let spmm_ms ctx m ~d =
  let s = m.shape in
  graph_ms ctx s
    ~load:(matrix_bytes s + gather_bytes s ~d)
    ~store:(s.rows * d * 8)
    ~flops:(2 * s.nnz * d)

let fusedmm_ms ctx m ~d (inst : Fusion.Fusedmm.instantiation) =
  match inst with
  | Fusion.Fusedmm.Spmm -> spmm_ms ctx m ~d
  | Fusion.Fusedmm.Sddmm_spmm -> (
      match ctx.engine with
      | Fusion.Executor.Library ->
          (* the two-launch composition a library backend would run,
             S materialised in between *)
          sddmm_ms ctx m ~d +. spmm_ms ctx m ~d
      | Fusion.Executor.Fused | Fusion.Executor.Host
      | Fusion.Executor.Dist ->
          let s = m.shape in
          graph_ms ctx s
            ~load:(matrix_bytes s + (2 * gather_bytes s ~d))
            ~store:(s.rows * d * 8)
            ~flops:(s.nnz * ((4 * d) + 4)))

(* Embedding width of a dense Matrix_ref argument. *)
let emb_width (n : Ir.node) =
  match n.Ir.ty with Ir.Matrix_ref { cols; _ } -> cols | _ -> 0

(* Cost of executing one DAG node as its own operator (what the fusion
   enumerator charges for the parts of a chain a candidate leaves
   unfused).  Scalar arithmetic is interpreter-side and free. *)
let op_ms ctx (n : Ir.node) ~mat_of =
  let veclen = function Ir.Vector n -> n | _ -> 0 in
  match (n.Ir.op, n.Ir.ty) with
  | (Ir.Const _ | Ir.Input_named _ | Ir.Input_pos _ | Ir.Var_at _), _ -> 0.0
  | (Ir.Ones | Ir.Zero_vec), _ -> 0.0
  | Ir.Neg, Ir.Vector n -> vec_ms ctx ~n ~reads:1 ~writes:1 ~flops:n
  | Ir.Bin (Ir.Add | Ir.Sub), Ir.Vector n ->
      vec_ms ctx ~n ~reads:2 ~writes:1 ~flops:(2 * n)
  | Ir.Bin Ir.Mul, Ir.Vector n ->
      (* scal or elementwise product; same traffic either way *)
      vec_ms ctx ~n ~reads:2 ~writes:1 ~flops:n
  | Ir.Bin _, _ -> 0.0
  | Ir.Dot, _ -> (
      match n.Ir.args with
      | a :: _ ->
          let n = veclen a.Ir.ty in
          vec_ms ctx ~n ~reads:2 ~writes:0 ~flops:(2 * n)
      | [] -> 0.0)
  | Ir.Matmul, _ -> (
      match n.Ir.args with m :: _ -> x_y_ms ctx (mat_of m) | [] -> 0.0)
  | Ir.Matmul_t, _ -> (
      match n.Ir.args with m :: _ -> xt_y_ms ctx (mat_of m) | [] -> 0.0)
  | Ir.Sddmm _, _ -> (
      match n.Ir.args with
      | [ g; h ] -> sddmm_ms ctx (mat_of g) ~d:(emb_width h)
      | _ -> 0.0)
  | Ir.Spmm _, _ -> (
      match n.Ir.args with
      | [ s; h ] -> spmm_ms ctx (mat_of s) ~d:(emb_width h)
      | _ -> 0.0)
  | Ir.Transpose, _ -> 0.0
  | Ir.Neg, _ -> 0.0

(* Does executing this node separately issue a device/runtime operator
   (and therefore pay the per-operator bookkeeping charge)? *)
let is_operator (n : Ir.node) =
  match (n.Ir.op, n.Ir.ty) with
  | (Ir.Const _ | Ir.Input_named _ | Ir.Input_pos _ | Ir.Var_at _), _ -> false
  | (Ir.Ones | Ir.Zero_vec | Ir.Transpose), _ -> false
  | (Ir.Neg | Ir.Bin _), Ir.Scalar -> false
  | (Ir.Neg | Ir.Bin _), _ -> true
  | (Ir.Dot | Ir.Matmul | Ir.Matmul_t | Ir.Sddmm _ | Ir.Spmm _), _ -> true
