let gemv (x : Dense.t) y =
  if Array.length y <> x.cols then invalid_arg "Blas.gemv: dimension mismatch";
  let out = Array.make x.rows 0.0 in
  for r = 0 to x.rows - 1 do
    let base = r * x.cols in
    let acc = ref 0.0 in
    for c = 0 to x.cols - 1 do
      acc := !acc +. (x.data.(base + c) *. y.(c))
    done;
    out.(r) <- !acc
  done;
  out

let gemv_t (x : Dense.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.gemv_t: dimension mismatch";
  let out = Array.make x.cols 0.0 in
  for r = 0 to x.rows - 1 do
    let base = r * x.cols in
    let pr = p.(r) in
    if pr <> 0.0 then
      for c = 0 to x.cols - 1 do
        out.(c) <- out.(c) +. (x.data.(base + c) *. pr)
      done
  done;
  out

let csrmv (x : Csr.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.csrmv: dimension mismatch";
  let out = Array.make x.rows 0.0 in
  for r = 0 to x.rows - 1 do
    let acc = ref 0.0 in
    for i = x.row_off.(r) to x.row_off.(r + 1) - 1 do
      acc := !acc +. (x.values.(i) *. y.(x.col_idx.(i)))
    done;
    out.(r) <- !acc
  done;
  out

let csrmv_t (x : Csr.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.csrmv_t: dimension mismatch";
  let out = Array.make x.cols 0.0 in
  for r = 0 to x.rows - 1 do
    let pr = p.(r) in
    if pr <> 0.0 then
      for i = x.row_off.(r) to x.row_off.(r + 1) - 1 do
        let c = x.col_idx.(i) in
        out.(c) <- out.(c) +. (x.values.(i) *. pr)
      done
  done;
  out

let cscmv (x : Csc.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.cscmv: dimension mismatch";
  let out = Array.make x.rows 0.0 in
  for c = 0 to x.cols - 1 do
    let yc = y.(c) in
    if yc <> 0.0 then
      Csc.iter_col x c (fun r v -> out.(r) <- out.(r) +. (v *. yc))
  done;
  out

let finish_pattern ~alpha ~beta ~z w =
  Vec.scal alpha w;
  (match (beta, z) with
  | Some b, Some z -> Vec.axpy b z w
  | None, None -> ()
  | Some b, None ->
      if b <> 0.0 then invalid_arg "Blas.pattern: beta given without z"
  | None, Some _ -> invalid_arg "Blas.pattern: z given without beta");
  w

let pattern_sparse ~alpha x ?v y ?beta ?z () =
  let p = csrmv x y in
  let p = match v with None -> p | Some v -> Vec.mul_elementwise v p in
  let w = csrmv_t x p in
  finish_pattern ~alpha ~beta ~z w

let pattern_dense ~alpha x ?v y ?beta ?z () =
  let p = gemv x y in
  let p = match v with None -> p | Some v -> Vec.mul_elementwise v p in
  let w = gemv_t x p in
  finish_pattern ~alpha ~beta ~z w

(* ---- multicore variants ----------------------------------------------
   Parallel versions of the four matrix-vector products sharing one
   domain pool, so the unfused "library" baseline is as parallel as the
   fused host kernels and the comparison between them stays honest.
   Row-major products partition rows disjointly.  Transposed products
   aggregate the way the fused host kernels do, through the same two
   kernels ([par_xt_sparse], [par_xt_dense]): per-domain accumulators
   plus a tree merge.  Inner loops are 4-way unrolled over unsafe
   accesses, the host analogue of the paper's TL register-unrolling
   trick. *)

let get_pool = function Some p -> p | None -> Par.Pool.default ()

(* Unrolled dot products.  Four independent accumulators hide FP-add
   latency; the combine order differs from the sequential reference by
   reassociation only (tests allow 1e-9 relative).  Inlined into every
   row loop below, so no row pays for a call returning a boxed float. *)
let[@inline] unrolled_dot data base (y : float array) n =
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let c = ref 0 in
  while !c + 4 <= n do
    let c0 = !c in
    acc0 :=
      !acc0 +. (Array.unsafe_get data (base + c0) *. Array.unsafe_get y c0);
    acc1 :=
      !acc1
      +. (Array.unsafe_get data (base + c0 + 1) *. Array.unsafe_get y (c0 + 1));
    acc2 :=
      !acc2
      +. (Array.unsafe_get data (base + c0 + 2) *. Array.unsafe_get y (c0 + 2));
    acc3 :=
      !acc3
      +. (Array.unsafe_get data (base + c0 + 3) *. Array.unsafe_get y (c0 + 3));
    c := c0 + 4
  done;
  let acc = ref (!acc0 +. !acc1 +. (!acc2 +. !acc3)) in
  while !c < n do
    acc := !acc +. (Array.unsafe_get data (base + !c) *. Array.unsafe_get y !c);
    incr c
  done;
  !acc

let[@inline] unrolled_sparse_dot values col_idx lo hi (y : float array) =
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let i = ref lo in
  while !i + 4 <= hi do
    let i0 = !i in
    acc0 :=
      !acc0
      +. Array.unsafe_get values i0
         *. Array.unsafe_get y (Array.unsafe_get col_idx i0);
    acc1 :=
      !acc1
      +. Array.unsafe_get values (i0 + 1)
         *. Array.unsafe_get y (Array.unsafe_get col_idx (i0 + 1));
    acc2 :=
      !acc2
      +. Array.unsafe_get values (i0 + 2)
         *. Array.unsafe_get y (Array.unsafe_get col_idx (i0 + 2));
    acc3 :=
      !acc3
      +. Array.unsafe_get values (i0 + 3)
         *. Array.unsafe_get y (Array.unsafe_get col_idx (i0 + 3));
    i := i0 + 4
  done;
  let acc = ref (!acc0 +. !acc1 +. (!acc2 +. !acc3)) in
  while !i < hi do
    acc :=
      !acc
      +. Array.unsafe_get values !i
         *. Array.unsafe_get y (Array.unsafe_get col_idx !i);
    incr i
  done;
  !acc

let par_gemv ?pool (x : Dense.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.par_gemv: dimension mismatch";
  let pool = get_pool pool in
  let out = Array.make x.rows 0.0 in
  let data = x.data and cols = x.cols in
  Par.Pool.parallel_for pool ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a) ~nnz:((b - a) * cols);
      for r = a to b - 1 do
        Array.unsafe_set out r (unrolled_dot data (r * cols) y cols)
      done);
  out

let par_csrmv ?pool (x : Csr.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.par_csrmv: dimension mismatch";
  let pool = get_pool pool in
  let out = Array.make x.rows 0.0 in
  let values = x.values and col_idx = x.col_idx and row_off = x.row_off in
  Par.Pool.parallel_for pool ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a)
          ~nnz:(row_off.(b) - row_off.(a));
      for r = a to b - 1 do
        Array.unsafe_set out r
          (unrolled_sparse_dot values col_idx
             (Array.unsafe_get row_off r)
             (Array.unsafe_get row_off (r + 1))
             y)
      done);
  out

(* ---- per-domain-accumulator X^T kernels ------------------------------
   The one way a host kernel aggregates [X^T s]: every domain owns a
   private dense [Bigarray] accumulator for the whole output (the
   stand-in for the GPU's per-block shared-memory buffer), scatters its
   rows into it, and a log-depth tree reduce on the pool combines the
   accumulators (the stand-in for the inter-block atomic sweep). *)

type row_scalar = Dot of Vec.t | Scaled_dot of Vec.t * Vec.t | Given of Vec.t

(* The accumulator helpers below take the Bigarray as a parameter, so
   the element kind must be pinned by annotation: a bare parameter is
   still a type variable when its binding is compiled, and the compiler
   then emits generic (C-call) accessors instead of unboxed float64
   loads — a silent ~4x slowdown on the hot loops. *)
type acc = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Tree-merge step over Bigarray accumulators, 4-way unrolled. *)
let merge_add_ba ~(dst : acc) ~(src : acc) =
  let n = Bigarray.Array1.dim dst in
  let i = ref 0 in
  while !i + 4 <= n do
    let i0 = !i in
    Bigarray.Array1.unsafe_set dst i0
      (Bigarray.Array1.unsafe_get dst i0 +. Bigarray.Array1.unsafe_get src i0);
    Bigarray.Array1.unsafe_set dst (i0 + 1)
      (Bigarray.Array1.unsafe_get dst (i0 + 1)
      +. Bigarray.Array1.unsafe_get src (i0 + 1));
    Bigarray.Array1.unsafe_set dst (i0 + 2)
      (Bigarray.Array1.unsafe_get dst (i0 + 2)
      +. Bigarray.Array1.unsafe_get src (i0 + 2));
    Bigarray.Array1.unsafe_set dst (i0 + 3)
      (Bigarray.Array1.unsafe_get dst (i0 + 3)
      +. Bigarray.Array1.unsafe_get src (i0 + 3));
    i := i0 + 4
  done;
  while !i < n do
    Bigarray.Array1.unsafe_set dst !i
      (Bigarray.Array1.unsafe_get dst !i +. Bigarray.Array1.unsafe_get src !i);
    incr i
  done

(* Write [alpha * m + beta * z] into [out] (fresh when absent): the
   one pass that turns the merged accumulator into the caller's
   result. *)
let finalize_ba ~alpha ~beta_z (m : acc) ~cols ~into =
  let out = match into with Some o -> o | None -> Array.create_float cols in
  (match beta_z with
  | None ->
      for c = 0 to cols - 1 do
        Array.unsafe_set out c (alpha *. Bigarray.Array1.unsafe_get m c)
      done
  | Some (beta, z) ->
      for c = 0 to cols - 1 do
        Array.unsafe_set out c
          ((alpha *. Bigarray.Array1.unsafe_get m c)
          +. (beta *. Array.unsafe_get z c))
      done);
  out

(* The accumulators belong to the domain that calls the op, not to the
   pool or its workers.  A pool runs one job at a time, but an op is
   two jobs (the scatter, then the merge rounds), so another domain's
   op on the same pool can run between them: accumulators owned by the
   pool or a worker would then be overwritten before they are merged.
   Each worker's accumulator is a separate allocation that the worker
   makes itself, the first time it needs one at least this wide, with
   a 128-byte tail that no op writes, so no two workers' accumulators
   share a cache line.  (One buffer carved into regions with 128-byte
   gaps between them made [lr-cg-tall]'s kernel slower than fresh
   accumulators; worker-made ones are not: DESIGN.md section 12.)  An
   accumulator only grows, so a domain keeps them at the size of the
   widest op it ran.  [views] are the first [cols] floats of each. *)
type regions = { mutable accs : acc array; mutable views : acc array }

let tail_floats = 16

let empty_acc = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

let no_regions () = { accs = [||]; views = [||] }

let regions_key =
  Domain.DLS.new_key (fun () -> Atomic.make (Some (no_regions ())))

(* Worker [wid]'s accumulator for a [cols]-wide op: the first [cols]
   floats of its allocation, which the worker calling this replaces
   when it is too narrow. *)
let region rg ~wid ~cols =
  let v = rg.views.(wid) in
  if Bigarray.Array1.dim v = cols then v
  else begin
    if Bigarray.Array1.dim rg.accs.(wid) < cols + tail_floats then
      rg.accs.(wid) <-
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
          (cols + tail_floats);
    let v = Bigarray.Array1.sub rg.accs.(wid) 0 cols in
    rg.views.(wid) <- v;
    v
  end

(* A domain's accumulators are taken for the length of one op and put
   back after it, so two systhreads of one domain never share them: the
   second gets a set of its own for that op. *)
let with_regions ~workers f =
  let slot = Domain.DLS.get regions_key in
  let fit rg =
    if Array.length rg.views <> workers then begin
      let have = Array.length rg.accs in
      if have < workers then
        rg.accs <- Array.append rg.accs (Array.make (workers - have) empty_acc);
      rg.views <- Array.make workers empty_acc
    end;
    rg
  in
  match Atomic.exchange slot None with
  | Some rg ->
      Fun.protect ~finally:(fun () -> Atomic.set slot (Some rg)) (fun () ->
          f (fit rg))
  | None -> f (fit (no_regions ()))

(* Observability: accumulator allocations and merge traffic are
   recorded from the coordinating domain (single-writer tallies);
   per-worker rows/nnz are credited inside the worker closures, each
   writing only its own slot.  The accumulators are the per-call
   working set: every call records one per worker, whether its regions
   were reused or not.  Every recording entry point is a no-op
   one-flag check unless a Host_stats sink is installed. *)
let record_accs ~count ~elems =
  if Kf_obs.Host_stats.profiling () then
    for _ = 1 to count do
      Kf_obs.Host_stats.record_alloc ~bytes:(8 * elems)
    done

let record_merge_traffic ~workers ~cols =
  (* each of the (workers - 1) pairwise tree merges reads dst + src and
     writes dst: 24 bytes per element. *)
  if Kf_obs.Host_stats.profiling () then
    Kf_obs.Host_stats.record_merge_bytes ~bytes:((workers - 1) * cols * 8 * 3)

(* Run [scatter wid w] on every worker into its zeroed region of the
   calling domain's accumulators, tree-merge them and write
   [alpha * w + beta * z]. *)
let accumulate_and_merge pool ~cols ~alpha ~beta_z ~into scatter =
  let workers = Par.Pool.size pool in
  record_accs ~count:workers ~elems:cols;
  with_regions ~workers @@ fun rg ->
  Par.Pool.run_workers pool (fun wid ->
      let w = region rg ~wid ~cols in
      Bigarray.Array1.fill w 0.0;
      scatter wid w);
  let merged = Par.Pool.reduce pool ~merge:merge_add_ba rg.views in
  record_merge_traffic ~workers ~cols;
  finalize_ba ~alpha ~beta_z merged ~cols ~into

(* Scatter the rows [rlo, rhi) of [x] into [w], each row's scalar
   computed inline from [src]. *)
let sparse_scatter_rows_ba (x : Csr.t) ~src ~(w : acc) ~rlo ~rhi =
  let values = x.values and col_idx = x.col_idx and row_off = x.row_off in
  for r = rlo to rhi - 1 do
    let s = Array.unsafe_get row_off r
    and e = Array.unsafe_get row_off (r + 1) in
    if e > s then begin
      let pr =
        match src with
        | Dot y -> unrolled_sparse_dot values col_idx s e y
        | Scaled_dot (y, v) ->
            unrolled_sparse_dot values col_idx s e y *. Array.unsafe_get v r
        | Given p -> Array.unsafe_get p r
      in
      if pr <> 0.0 then begin
        let i = ref s in
        while !i + 4 <= e do
          let i0 = !i in
          let c0 = Array.unsafe_get col_idx i0
          and v0 = Array.unsafe_get values i0 in
          let c1 = Array.unsafe_get col_idx (i0 + 1)
          and v1 = Array.unsafe_get values (i0 + 1) in
          let c2 = Array.unsafe_get col_idx (i0 + 2)
          and v2 = Array.unsafe_get values (i0 + 2) in
          let c3 = Array.unsafe_get col_idx (i0 + 3)
          and v3 = Array.unsafe_get values (i0 + 3) in
          Bigarray.Array1.unsafe_set w c0
            (Bigarray.Array1.unsafe_get w c0 +. (v0 *. pr));
          Bigarray.Array1.unsafe_set w c1
            (Bigarray.Array1.unsafe_get w c1 +. (v1 *. pr));
          Bigarray.Array1.unsafe_set w c2
            (Bigarray.Array1.unsafe_get w c2 +. (v2 *. pr));
          Bigarray.Array1.unsafe_set w c3
            (Bigarray.Array1.unsafe_get w c3 +. (v3 *. pr));
          i := i0 + 4
        done;
        while !i < e do
          let c = Array.unsafe_get col_idx !i in
          Bigarray.Array1.unsafe_set w c
            (Bigarray.Array1.unsafe_get w c
            +. (Array.unsafe_get values !i *. pr));
          incr i
        done
      end
    end
  done

(* nnz-balanced row ranges, one per domain. *)
let par_xt_sparse ~pool src ~alpha ~beta_z ?into (x : Csr.t) =
  let bounds =
    Par.Partition.by_prefix ~prefix:x.row_off ~parts:(Par.Pool.size pool) ()
  in
  accumulate_and_merge pool ~cols:x.cols ~alpha ~beta_z ~into (fun wid w ->
      let rlo = bounds.(wid) and rhi = bounds.(wid + 1) in
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(rhi - rlo)
          ~nnz:(x.row_off.(rhi) - x.row_off.(rlo));
      sparse_scatter_rows_ba x ~src ~w ~rlo ~rhi)

(* Axpy of one dense row into the Bigarray accumulator, 4-way
   unrolled; inlined, so [pr] is not boxed on the way in. *)
let[@inline] dense_axpy_row_ba data ~base ~pr ~(w : acc) ~cols =
  let c = ref 0 in
  while !c + 4 <= cols do
    let c0 = !c in
    Bigarray.Array1.unsafe_set w c0
      (Bigarray.Array1.unsafe_get w c0
      +. (Array.unsafe_get data (base + c0) *. pr));
    Bigarray.Array1.unsafe_set w (c0 + 1)
      (Bigarray.Array1.unsafe_get w (c0 + 1)
      +. (Array.unsafe_get data (base + c0 + 1) *. pr));
    Bigarray.Array1.unsafe_set w (c0 + 2)
      (Bigarray.Array1.unsafe_get w (c0 + 2)
      +. (Array.unsafe_get data (base + c0 + 2) *. pr));
    Bigarray.Array1.unsafe_set w (c0 + 3)
      (Bigarray.Array1.unsafe_get w (c0 + 3)
      +. (Array.unsafe_get data (base + c0 + 3) *. pr));
    c := c0 + 4
  done;
  while !c < cols do
    Bigarray.Array1.unsafe_set w !c
      (Bigarray.Array1.unsafe_get w !c
      +. (Array.unsafe_get data (base + !c) *. pr));
    incr c
  done

(* Uniform row ranges, one per domain. *)
let par_xt_dense ~pool src ~alpha ~beta_z ?into (x : Dense.t) =
  let bounds = Par.Partition.uniform ~n:x.rows ~parts:(Par.Pool.size pool) in
  let data = x.data and cols = x.cols in
  accumulate_and_merge pool ~cols ~alpha ~beta_z ~into (fun wid w ->
      let rlo = bounds.(wid) and rhi = bounds.(wid + 1) in
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(rhi - rlo) ~nnz:((rhi - rlo) * cols);
      for r = rlo to rhi - 1 do
        let base = r * cols in
        let pr =
          match src with
          | Dot y -> unrolled_dot data base y cols
          | Scaled_dot (y, v) ->
              unrolled_dot data base y cols *. Array.unsafe_get v r
          | Given p -> Array.unsafe_get p r
        in
        if pr <> 0.0 then dense_axpy_row_ba data ~base ~pr ~w ~cols
      done)

let par_gemv_t ?pool (x : Dense.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.par_gemv_t: dimension mismatch";
  par_xt_dense ~pool:(get_pool pool) (Given p) ~alpha:1.0 ~beta_z:None x

let par_csrmv_t ?pool (x : Csr.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.par_csrmv_t: dimension mismatch";
  par_xt_sparse ~pool:(get_pool pool) (Given p) ~alpha:1.0 ~beta_z:None x

let par_pattern_sparse ?pool ~alpha x ?v y ?beta ?z () =
  let p = par_csrmv ?pool x y in
  let p = match v with None -> p | Some v -> Vec.mul_elementwise v p in
  let w = par_csrmv_t ?pool x p in
  finish_pattern ~alpha ~beta ~z w

type op_class = Pattern_op | Blas1_op | Other_op

type time_buckets = {
  mutable pattern_s : float;
  mutable blas1_s : float;
  mutable other_s : float;
}

let fresh_buckets () = { pattern_s = 0.0; blas1_s = 0.0; other_s = 0.0 }

let timed buckets cls f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (match cls with
  | Pattern_op -> buckets.pattern_s <- buckets.pattern_s +. dt
  | Blas1_op -> buckets.blas1_s <- buckets.blas1_s +. dt
  | Other_op -> buckets.other_s <- buckets.other_s +. dt);
  result

let total_seconds b = b.pattern_s +. b.blas1_s +. b.other_s
