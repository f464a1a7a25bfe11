open Gpu_sim

(* Dense access patterns are fully regular, so transaction counts are
   charged in closed form rather than by walking indices; the arithmetic
   itself is delegated to the reference implementation (same math, same
   result). *)

let lines_of ~bytes = (bytes + 127) / 128

let charge_vector_stream (ctx : Sim.ctx) ~loads_elts ~stores_elts =
  let stats = ctx.stats in
  stats.Stats.gld_transactions <-
    stats.Stats.gld_transactions + lines_of ~bytes:(8 * loads_elts);
  stats.Stats.gst_transactions <-
    stats.Stats.gst_transactions + lines_of ~bytes:(8 * stores_elts)

let vector_launch n =
  let block_size = 256 in
  let grid_blocks = Stdlib.max 1 ((n + block_size - 1) / block_size) in
  Launch.v ~grid_blocks ~block_size ~vs:1 ~coarsening:1 ~regs_per_thread:16
    ~shared_per_block:0 ()

let gemv device (x : Matrix.Dense.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Cublas.gemv: dimension mismatch";
  let block_size = 128 in
  let vs = 32 in
  let grid_blocks =
    Launch.grid_for_rows ~rows:x.rows ~block_size ~vs ~coarsening:1
  in
  let launch =
    Launch.v ~grid_blocks ~block_size ~vs ~coarsening:1 ~regs_per_thread:24
      ~shared_per_block:0 ()
  in
  let result, report =
    Sim.run device launch ~name:"cublas_dgemv_n" (fun ctx ->
        (* one coalesced sweep over X ... *)
        Sim.load_segment ctx ~bytes_per_elt:8 ~start:0 ~count:(x.rows * x.cols);
        (* ... y re-read per row, served by L2 past the cold miss ... *)
        let y_lines = lines_of ~bytes:(8 * x.cols) in
        let miss =
          Cache.miss_fraction ~working_set_bytes:(8 * x.cols)
            ~capacity_bytes:device.Device.l2_bytes
        in
        ctx.stats.gld_transactions <-
          ctx.stats.gld_transactions + y_lines
          + int_of_float
              (Float.round (float_of_int ((x.rows - 1) * y_lines) *. miss));
        (* ... per-row warp reductions and the coalesced result store. *)
        for _ = 1 to x.rows do
          Sim.shuffle_reduce ctx ~width:vs
        done;
        Sim.flops ctx (2 * x.rows * x.cols);
        Sim.store_segment ctx ~bytes_per_elt:8 ~start:0 ~count:x.rows;
        Matrix.Blas.gemv x y)
  in
  (result, [ report ])

let gemv_t device (x : Matrix.Dense.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Cublas.gemv_t: dimension mismatch";
  let block_size = 256 in
  let rows_per_block = block_size in
  let grid_blocks =
    Stdlib.max 1 ((x.rows + rows_per_block - 1) / rows_per_block)
  in
  let launch =
    Launch.v ~grid_blocks ~block_size ~vs:32 ~coarsening:1 ~regs_per_thread:32
      ~shared_per_block:(32 * 33 * 8) ()
  in
  let result, report =
    Sim.run device launch ~name:"cublas_dgemv_t" (fun ctx ->
        (* coalesced sweep over X, staged through 32x32 shared tiles. *)
        Sim.load_segment ctx ~bytes_per_elt:8 ~start:0 ~count:(x.rows * x.cols);
        Sim.load_segment ctx ~bytes_per_elt:8 ~start:0 ~count:x.rows;
        let warp_chunks = x.rows * x.cols / 32 in
        (* store + load of every tile element; conflicts scale with the
           warps per block contending for the 32 banks. *)
        let conflict_ways = Stdlib.max 1 (2 * block_size / 32) in
        Sim.shared_access ctx ~warp_requests:(2 * warp_chunks) ~conflict_ways;
        Sim.flops ctx (2 * x.rows * x.cols);
        (* per-block partial results committed with global atomics. *)
        let degree =
          Contention.panel_commit_degree device ~occupancy:ctx.occupancy
            ~grid_blocks
        in
        Sim.global_atomic_add ctx ~ops:(x.cols * grid_blocks)
          ~conflict_degree:degree;
        Matrix.Blas.gemv_t x p)
  in
  (result, [ report ])

let axpy device a x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Cublas.axpy: dimension mismatch";
  let result, report =
    Sim.run device (vector_launch n) ~name:"cublas_daxpy" (fun ctx ->
        charge_vector_stream ctx ~loads_elts:(2 * n) ~stores_elts:n;
        Sim.flops ctx (2 * n);
        let out = Array.create_float n in
        for i = 0 to n - 1 do
          out.(i) <- (a *. x.(i)) +. y.(i)
        done;
        out)
  in
  (result, [ report ])

let dot device x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Cublas.dot: dimension mismatch";
  let result, report =
    Sim.run device (vector_launch n) ~name:"cublas_ddot" (fun ctx ->
        charge_vector_stream ctx ~loads_elts:(2 * n) ~stores_elts:0;
        Sim.flops ctx (2 * n);
        Sim.shuffle_reduce ctx ~width:32;
        Sim.global_atomic_add ctx ~ops:ctx.launch.grid_blocks
          ~conflict_degree:
            (Contention.block_sweep_degree device ~occupancy:ctx.occupancy
               ~grid_blocks:ctx.launch.grid_blocks);
        Matrix.Vec.dot x y)
  in
  (result, [ report ])

let nrm2 device x =
  let result, reports = dot device x x in
  (sqrt result, reports)

let scal device a x =
  let n = Array.length x in
  let result, report =
    Sim.run device (vector_launch n) ~name:"cublas_dscal" (fun ctx ->
        charge_vector_stream ctx ~loads_elts:n ~stores_elts:n;
        Sim.flops ctx n;
        Matrix.Vec.scale a x)
  in
  (result, [ report ])

let copy device x =
  let n = Array.length x in
  let result, report =
    Sim.run device (vector_launch n) ~name:"cublas_dcopy" (fun ctx ->
        charge_vector_stream ctx ~loads_elts:n ~stores_elts:n;
        Array.copy x)
  in
  (result, [ report ])

let mul_elementwise device v p =
  let n = Array.length v in
  if Array.length p <> n then
    invalid_arg "Cublas.mul_elementwise: dimension mismatch";
  let result, report =
    Sim.run device (vector_launch n) ~name:"custom_hadamard" (fun ctx ->
        charge_vector_stream ctx ~loads_elts:(2 * n) ~stores_elts:n;
        Sim.flops ctx n;
        Matrix.Vec.mul_elementwise v p)
  in
  (result, [ report ])
