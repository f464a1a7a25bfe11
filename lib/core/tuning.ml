open Gpu_sim

let sparse_kernel_registers = 43

(* Equation 4. *)
let sparse_vector_size mu =
  if mu > 32.0 then 32
  else if mu > 16.0 then 16
  else if mu > 8.0 then 8
  else if mu > 4.0 then 4
  else if mu > 2.0 then 2
  else 1

let max_shared_columns (d : Device.t) =
  (* The smallest block uses one warp per vector slot: shared is
     (BS/VS + n) * 8 with BS/VS >= 1. *)
  (d.shared_mem_per_sm / 8) - 1

type sparse_plan = {
  sp_vs : int;
  sp_bs : int;
  sp_coarsening : int;
  sp_grid : int;
  sp_shared_bytes : int;
  sp_regs : int;
  sp_large_n : bool;
  sp_occupancy : Occupancy.result;
}

let sparse_shared_bytes ~bs ~vs ~cols ~large_n =
  if large_n then bs / vs * 8 else ((bs / vs) + cols) * 8

(* Equation 5, rounded up so [grid * NV * C] covers all rows. *)
let coarsening_for ~rows ~vs ~(occupancy : Occupancy.result)
    ~(device : Device.t) =
  let concurrent_vectors =
    device.num_sms * occupancy.active_warps_per_sm * device.warp_size / vs
  in
  Stdlib.max 1
    ((rows + concurrent_vectors - 1) / Stdlib.max 1 concurrent_vectors)

let block_size_candidates (d : Device.t) =
  let rec build bs acc =
    if bs > d.max_threads_per_block then List.rev acc
    else build (bs + d.warp_size) (bs :: acc)
  in
  build d.warp_size []

let make_sparse_plan device (x : Matrix.Csr.t) ~vs ~bs ~coarsening ~large_n =
  let shared = sparse_shared_bytes ~bs ~vs ~cols:x.cols ~large_n in
  match
    Occupancy.calculate device ~block_size:bs
      ~regs_per_thread:sparse_kernel_registers ~shared_per_block:shared
  with
  | exception Invalid_argument _ -> None
  | occupancy ->
      let grid =
        Launch.grid_for_rows ~rows:x.rows ~block_size:bs ~vs ~coarsening
      in
      Some
        {
          sp_vs = vs;
          sp_bs = bs;
          sp_coarsening = coarsening;
          sp_grid = grid;
          sp_shared_bytes = shared;
          sp_regs = sparse_kernel_registers;
          sp_large_n = large_n;
          sp_occupancy = occupancy;
        }

let sparse_plan device (x : Matrix.Csr.t) =
  let vs = sparse_vector_size (Matrix.Csr.mean_row_nnz x) in
  let large_n = x.cols > max_shared_columns device in
  let bs, occupancy =
    Occupancy.best_block_size device ~regs_per_thread:sparse_kernel_registers
      ~shared_per_block:(fun ~block_size ->
        sparse_shared_bytes ~bs:block_size ~vs ~cols:x.cols ~large_n)
      ~candidates:
        (List.filter (fun bs -> bs mod vs = 0) (block_size_candidates device))
  in
  let coarsening = coarsening_for ~rows:x.rows ~vs ~occupancy ~device in
  match make_sparse_plan device x ~vs ~bs ~coarsening ~large_n with
  | Some plan -> plan
  | None -> invalid_arg "Tuning.sparse_plan: model produced unlaunchable plan"

let sparse_plan_with device (x : Matrix.Csr.t) ~vs ~bs ~coarsening =
  if bs mod vs <> 0 then None
  else begin
    let large_n = x.cols > max_shared_columns device in
    make_sparse_plan device x ~vs ~bs ~coarsening ~large_n
  end

let enumerate_sparse_plans device (x : Matrix.Csr.t) ~vs =
  let chosen = sparse_plan device x in
  let c_star = chosen.sp_coarsening in
  (* Sweep rows-per-vector geometrically below and around the balanced
     value, mimicking the paper's ~1,200-point exploration. *)
  let c_candidates =
    let rec doubling c acc = if c >= c_star then acc else doubling (2 * c) (c :: acc) in
    let below = doubling 1 [] in
    let around =
      List.filter_map
        (fun offset ->
          let c = c_star + (offset * Stdlib.max 1 (c_star / 8)) in
          if c >= 1 then Some c else None)
        [ -4; -3; -2; -1; 0; 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 ]
    in
    List.sort_uniq compare (below @ around)
  in
  List.concat_map
    (fun bs ->
      if bs mod vs <> 0 then []
      else
        List.filter_map
          (fun c ->
            match sparse_plan_with device x ~vs ~bs ~coarsening:c with
            | Some plan -> Some (bs, c, plan)
            | None -> None)
          c_candidates)
    (block_size_candidates device)

type dense_plan = {
  dp_vs : int;
  dp_bs : int;
  dp_tl : int;
  dp_coarsening : int;
  dp_grid : int;
  dp_regs : int;
  dp_shared_bytes : int;
  dp_padded_cols : int;
  dp_occupancy : Occupancy.result;
}

let max_dense_thread_load = 40

(* Profiled register curve: 23 registers at TL=1, 255 at TL=40,
   interpolated linearly as unrolling replicates the accumulator set. *)
let dense_registers ~tl =
  if tl < 1 then invalid_arg "Tuning.dense_registers: tl < 1";
  Stdlib.min 255 (23 + ((tl - 1) * 232 / (max_dense_thread_load - 1)))

(* Equation 6. *)
let dense_vector_size ~cols ~tl =
  let per_thread_rows = (cols + tl - 1) / tl in
  if per_thread_rows > 32 then 128
  else if per_thread_rows > 16 then 32
  else if per_thread_rows > 8 then 16
  else if per_thread_rows > 4 then 8
  else if per_thread_rows > 2 then 4
  else if per_thread_rows > 1 then 2
  else 1

let round_up_to v m = (v + m - 1) / m * m

let dense_shared_bytes ~bs ~vs = if vs > 32 then bs / 32 * 8 else vs * 8

let make_dense_plan device ~rows ~cols ~bs ~tl =
  if tl < 1 || tl > max_dense_thread_load then None
  else begin
    let vs = dense_vector_size ~cols ~tl in
    let vs = Stdlib.min vs bs in
    if bs mod vs <> 0 || vs * tl < cols then None
    else begin
      let padded = round_up_to cols vs in
      let regs = dense_registers ~tl in
      let shared = dense_shared_bytes ~bs ~vs in
      match
        Occupancy.calculate device ~block_size:bs ~regs_per_thread:regs
          ~shared_per_block:shared
      with
      | exception Invalid_argument _ -> None
      | occupancy ->
          let coarsening =
            coarsening_for ~rows ~vs ~occupancy ~device
          in
          let grid =
            Launch.grid_for_rows ~rows ~block_size:bs ~vs ~coarsening
          in
          Some
            {
              dp_vs = vs;
              dp_bs = bs;
              dp_tl = tl;
              dp_coarsening = coarsening;
              dp_grid = grid;
              dp_regs = regs;
              dp_shared_bytes = shared;
              dp_padded_cols = padded;
              dp_occupancy = occupancy;
            }
    end
  end

let wasted_warps ~vs ~tl ~cols = Stdlib.max 0 (((vs * tl) - cols) / 32)

let dense_plan device ~rows ~cols =
  if cols <= 32 then begin
    (* Small-column exception: maximum block, one element per thread. *)
    match make_dense_plan device ~rows ~cols ~bs:1024 ~tl:1 with
    | Some plan -> plan
    | None -> invalid_arg "Tuning.dense_plan: small-column plan unlaunchable"
  end
  else begin
    let bs = 128 in
    let candidates =
      List.filter_map
        (fun tl ->
          match make_dense_plan device ~rows ~cols ~bs ~tl with
          | Some plan -> Some (tl, plan)
          | None -> None)
        (List.init max_dense_thread_load (fun i -> i + 1))
    in
    let better (tl1, p1) (tl2, p2) =
      let w1 = wasted_warps ~vs:p1.dp_vs ~tl:tl1 ~cols
      and w2 = wasted_warps ~vs:p2.dp_vs ~tl:tl2 ~cols in
      let o1 = p1.dp_occupancy.occupancy and o2 = p2.dp_occupancy.occupancy in
      if o2 > o1 then (tl2, p2)
      else if o2 = o1 && w2 < w1 then (tl2, p2)
      else if o2 = o1 && w2 = w1 && tl2 < tl1 then (tl2, p2)
      else (tl1, p1)
    in
    match candidates with
    | [] -> invalid_arg "Tuning.dense_plan: no launchable thread load"
    | first :: rest -> snd (List.fold_left better first rest)
  end

let dense_plan_with device ~rows ~cols ~tl =
  let bs = if cols <= 32 then 1024 else 128 in
  make_dense_plan device ~rows ~cols ~bs ~tl

let pp_sparse_plan fmt p =
  Format.fprintf fmt
    "sparse plan: VS=%d BS=%d C=%d grid=%d shared=%dB regs=%d %s(%a)" p.sp_vs
    p.sp_bs p.sp_coarsening p.sp_grid p.sp_shared_bytes p.sp_regs
    (if p.sp_large_n then "large-n " else "")
    Occupancy.pp p.sp_occupancy

let pp_dense_plan fmt p =
  Format.fprintf fmt
    "dense plan: VS=%d BS=%d TL=%d C=%d grid=%d regs=%d padded_cols=%d (%a)"
    p.dp_vs p.dp_bs p.dp_tl p.dp_coarsening p.dp_grid p.dp_regs
    p.dp_padded_cols Occupancy.pp p.dp_occupancy
