type mode = One_d | One_five_d

let mode_name = function One_d -> "1d" | One_five_d -> "1.5d"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "1d" -> Some One_d
  | "1.5d" | "15d" -> Some One_five_d
  | _ -> None

type t = { latency_us : float; gbps : float }

let default = { latency_us = 50.0; gbps = 4.0 }

let latency_var =
  Kf_obs.Env.float ~above:0.0 "KF_DIST_LAT_US"
    ~doc:"Per-message latency of the dist network model, us." ~default:"50"

let gbps_var =
  Kf_obs.Env.float ~above:0.0 "KF_DIST_GBPS"
    ~doc:"Link bandwidth of the dist network model, GB/s." ~default:"4"

let of_env () =
  {
    latency_us =
      Option.value (Kf_obs.Env.get latency_var) ~default:default.latency_us;
    gbps = Option.value (Kf_obs.Env.get gbps_var) ~default:default.gbps;
  }

(* 1 GB/s moves 1000 bytes per microsecond. *)
let xfer_us t ~msgs ~bytes =
  (float_of_int msgs *. t.latency_us)
  +. (float_of_int bytes /. (t.gbps *. 1000.0))

let bytes_1d ~workers ~cols = workers * cols * 8

(* id (8 B) + values + the frame-field overhead of the ids/widths
   entries (~8 B amortised). *)
let block_bytes ~width = 16 + (width * 8)

let block_cols_var =
  Kf_obs.Env.int ~min:1 "KF_DIST_BLOCK_COLS"
    ~doc:"Column-block width of the 1.5D allreduce layout." ~default:"256"

let block_cols_of_env () =
  Option.value (Kf_obs.Env.get block_cols_var) ~default:256

let expected_touched_blocks ~cols ~nnz_per_worker ~block_cols =
  if cols = 0 || nnz_per_worker <= 0.0 then 0.0
  else
    let blocks = float_of_int ((cols + block_cols - 1) / block_cols) in
    blocks *. (1.0 -. (((blocks -. 1.0) /. blocks) ** nnz_per_worker))

let bytes_15d_estimate ~workers ~cols ~nnz ~block_cols =
  if workers = 0 then 0
  else
    let per_worker =
      expected_touched_blocks ~cols
        ~nnz_per_worker:(float_of_int nnz /. float_of_int workers)
        ~block_cols
    in
    int_of_float
      (float_of_int workers *. per_worker
      *. float_of_int (block_bytes ~width:block_cols))

let choose_mode t ~workers ~bytes_1d ~bytes_15d =
  let us_1d = xfer_us t ~msgs:workers ~bytes:bytes_1d in
  let us_15d = xfer_us t ~msgs:workers ~bytes:bytes_15d in
  ((if us_15d < us_1d then One_five_d else One_d), us_1d, us_15d)

let op_us t ~workers ~scatter_bytes ~gather_bytes ~compute_us =
  xfer_us t ~msgs:workers ~bytes:scatter_bytes
  +. compute_us
  +. xfer_us t ~msgs:workers ~bytes:gather_bytes

let recommend t ~max_workers ~cols ~nnz ~block_cols ~seq_compute_us =
  let best = ref (1, One_d, infinity) in
  for w = 1 to max 1 max_workers do
    let b1 = bytes_1d ~workers:w ~cols in
    let b15 = bytes_15d_estimate ~workers:w ~cols ~nnz ~block_cols in
    let mode, us_1d, us_15d = choose_mode t ~workers:w ~bytes_1d:b1 ~bytes_15d:b15 in
    let gather = if us_15d < us_1d then b15 else b1 in
    (* scatter: the length-rows vector y is split across workers, so its
       volume is shape-independent of w; approximate it by the gather
       floor of one dense vector. *)
    let us =
      op_us t ~workers:w ~scatter_bytes:(cols * 8) ~gather_bytes:gather
        ~compute_us:(seq_compute_us /. float_of_int w)
    in
    let _, _, best_us = !best in
    if us < best_us then best := (w, mode, us)
  done;
  let w, mode, _ = !best in
  (w, mode)
