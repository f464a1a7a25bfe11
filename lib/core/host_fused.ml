type variant = Dense_acc | Blocked

let variants = [ Dense_acc; Blocked ]

let variant_name = function Dense_acc -> "dense-acc" | Blocked -> "blocked"

(* The shape decides: per-domain dense accumulators (one matrix walk,
   tree merge) while they are cache-cheap, the owner-computes blocked
   kernel once [8 * cols * domains] outgrows half an L2 per domain. *)
let choose_variant ~domains ~cols () =
  if Par.Tune.prefer_owner_computes ~domains ~cols then Blocked else Dense_acc

let get_pool = function Some p -> p | None -> Par.Pool.default ()

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

(* Epilogue pairing with [Blas.finish_pattern]'s validation, so the
   fused final-write paths reject the same argument mistakes. *)
let epilogue_of ~beta ~z =
  match (beta, z) with
  | Some b, Some z -> Some (b, z)
  | None, None -> None
  | Some b, None ->
      if b <> 0.0 then invalid_arg "Blas.pattern: beta given without z"
      else None
  | None, Some _ -> invalid_arg "Blas.pattern: z given without beta"

(* Convert a merged Bigarray accumulator into the caller's result,
   folding [alpha] and [beta * z] into the one write pass. *)
let finalize_ba ~alpha ~beta_z (m : acc) ~cols =
  let out = Array.make cols 0.0 in
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

let check_args ~rows ~cols ~v ~y ~z ~name =
  if Array.length y <> cols then
    invalid_arg (name ^ ": y must have one element per column");
  (match v with
  | Some v when Array.length v <> rows ->
      invalid_arg (name ^ ": v must have one element per row")
  | _ -> ());
  match z with
  | Some z when Array.length z <> cols ->
      invalid_arg (name ^ ": z must have one element per column")
  | _ -> ()

(* Degenerate shapes never reach the pool: the alpha term is a sum over
   zero rows (or zero columns), so the result is just the epilogue. *)
let degenerate ~alpha ~beta ~z ~cols =
  Matrix.Blas.finish_pattern ~alpha ~beta ~z (Array.make cols 0.0)

(* Row dot product with four independent accumulators (differs from the
   sequential reference by reassociation only). *)
let[@inline] sparse_row_dot (x : Matrix.Csr.t) y s e =
  let values = x.values and col_idx = x.col_idx in
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let i = ref s in
  while !i + 4 <= e do
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
  while !i < e do
    acc :=
      !acc
      +. Array.unsafe_get values !i
         *. Array.unsafe_get y (Array.unsafe_get col_idx !i);
    incr i
  done;
  !acc

(* Where a row's scalar comes from: a fresh dot product against [y]
   (Algorithm 2's first walk, locals standing in for registers), scaled
   by [v.(r)] when there is a [v], or a precomputed [p.(r)]
   (Algorithm 1).  A value, not a closure: the row loops below match on
   it and compute the scalar inline, so no row pays for a call that
   returns a boxed float. *)
type row_scalar =
  | Dot of float array
  | Scaled_dot of float array * float array
  | Given of float array

let[@inline] row_scalar src (x : Matrix.Csr.t) r s e =
  match src with
  | Dot y -> sparse_row_dot x y s e
  | Scaled_dot (y, v) -> sparse_row_dot x y s e *. Array.unsafe_get v r
  | Given p -> Array.unsafe_get p r

(* One fused pass over the rows [rlo, rhi) of [x], scattering each row's
   scalar contribution into the Bigarray accumulator [w].  The scatter
   is 4-way unrolled over unsafe accesses — the host's
   register-unrolling (TL) analogue. *)
let sparse_scatter_rows_ba (x : Matrix.Csr.t) ~src ~(w : acc) ~rlo ~rhi =
  let values = x.values and col_idx = x.col_idx and row_off = x.row_off in
  for r = rlo to rhi - 1 do
    let s = Array.unsafe_get row_off r
    and e = Array.unsafe_get row_off (r + 1) in
    if e > s then begin
      let pr = row_scalar src x r s e in
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

(* Observability: accumulator allocations are recorded from the
   coordinating domain (single-writer tallies); per-worker rows/nnz are
   credited inside the worker closures, each writing only its own
   slot.  Every recording entry point is a no-op one-flag check unless
   the executor installed a Host_stats sink. *)
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

(* Dense_acc: nnz-balanced row ranges, per-domain Bigarray accumulators,
   tree merge — the three-tier hierarchical aggregation in one matrix
   walk. *)
let sparse_dense_acc pool (x : Matrix.Csr.t) ~src =
  let workers = Par.Pool.size pool in
  let bounds = Par.Partition.by_prefix ~prefix:x.row_off ~parts:workers () in
  record_accs ~count:workers ~elems:x.cols;
  let parts =
    Par.Pool.map_workers pool (fun wid ->
        let w =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout x.cols
        in
        Bigarray.Array1.fill w 0.0;
        if Kf_obs.Host_stats.profiling () then
          Kf_obs.Host_stats.add_work
            ~rows:(bounds.(wid + 1) - bounds.(wid))
            ~nnz:(x.row_off.(bounds.(wid + 1)) - x.row_off.(bounds.(wid)));
        sparse_scatter_rows_ba x ~src ~w ~rlo:bounds.(wid)
          ~rhi:bounds.(wid + 1);
        w)
  in
  let merged = Par.Pool.reduce pool ~merge:merge_add_ba parts in
  record_merge_traffic ~workers ~cols:x.cols;
  merged

(* Row-block height of the blocked kernels' first pass. *)
let row_chunk = function Some n when n >= 1 -> n | _ -> Par.Tune.tile_rows ()

(* Blocked: the owner-computes two-pass kernel.  Pass 1 materialises
   the per-row scalars in parallel over row blocks; pass 2 scatters
   through the cached column-tile segment layout, each domain writing
   only the output slice it owns — no per-domain full-width
   accumulators, no merge, and exactly one streaming of the matrix per
   pass.  The epilogue is folded into the owners' final writes. *)
let sparse_blocked pool ?tile_rows ?tile_cols (x : Matrix.Csr.t) ~src ~alpha
    ~beta_z =
  let workers = Par.Pool.size pool in
  let p = Array.make x.rows 0.0 in
  record_accs ~count:1 ~elems:x.rows;
  let chunk = row_chunk tile_rows in
  Par.Pool.parallel_for pool ~chunk ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a)
          ~nnz:(x.row_off.(b) - x.row_off.(a));
      for r = a to b - 1 do
        let s = x.row_off.(r) and e = x.row_off.(r + 1) in
        if e > s then Array.unsafe_set p r (row_scalar src x r s e)
      done);
  let t = Matrix.Tiles.layout ?tile_cols ~parts:workers x in
  let out = Array.make x.cols 0.0 in
  Matrix.Tiles.scatter ~pool ~credit:false t x ~p ~alpha ?beta_z ~out ();
  out

(* Shared start of the Equation-1 kernels: the armed fault point (it
   only fires under the executor's recovery scope), then the pool and
   the variant, which is recorded in the ambient Host_stats. *)
let prologue ~point ?pool ?variant ~cols () =
  Kf_resil.Fault.check Kf_resil.Fault.Launch ~point;
  let pool = get_pool pool in
  let variant =
    match variant with
    | Some v -> v
    | None -> choose_variant ~domains:(Par.Pool.size pool) ~cols ()
  in
  Kf_obs.Host_stats.set_variant (variant_name variant);
  (pool, variant)

let run_sparse ?pool ?variant ?tile_rows ?tile_cols (x : Matrix.Csr.t) ~src
    ~alpha ~beta ~z =
  let pool, variant =
    prologue ~point:"host_fused.sparse" ?pool ?variant ~cols:x.cols ()
  in
  let beta_z = epilogue_of ~beta ~z in
  match variant with
  | Dense_acc ->
      let m = sparse_dense_acc pool x ~src in
      finalize_ba ~alpha ~beta_z m ~cols:x.cols
  | Blocked -> sparse_blocked pool ?tile_rows ?tile_cols x ~src ~alpha ~beta_z

let pattern_sparse ?pool ?variant ?tile_rows ?tile_cols ~alpha
    (x : Matrix.Csr.t) ?v y ?beta ?z () =
  check_args ~rows:x.rows ~cols:x.cols ~v ~y ~z
    ~name:"Host_fused.pattern_sparse";
  if x.rows = 0 || x.cols = 0 || Matrix.Csr.nnz x = 0 then
    degenerate ~alpha ~beta ~z ~cols:x.cols
  else
    run_sparse ?pool ?variant ?tile_rows ?tile_cols x
      ~src:(match v with None -> Dot y | Some v -> Scaled_dot (y, v))
      ~alpha ~beta ~z

let xt_p ?pool ?variant ?tile_rows ?tile_cols ~alpha (x : Matrix.Csr.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Host_fused.xt_p: p must have one element per row";
  if x.rows = 0 || x.cols = 0 || Matrix.Csr.nnz x = 0 then
    degenerate ~alpha ~beta:None ~z:None ~cols:x.cols
  else
    run_sparse ?pool ?variant ?tile_rows ?tile_cols x
      ~src:(Given p) ~alpha ~beta:None ~z:None

(* ---- dense ---- *)

let dense_row_scalar (x : Matrix.Dense.t) y ~v r =
  let data = x.data and cols = x.cols in
  let base = r * cols in
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let c = ref 0 in
  while !c + 4 <= cols do
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
  while !c < cols do
    acc := !acc +. (Array.unsafe_get data (base + !c) *. Array.unsafe_get y !c);
    incr c
  done;
  match v with None -> !acc | Some v -> !acc *. v.(r)

(* Axpy of one dense row into the Bigarray accumulator, 4-way
   unrolled. *)
let dense_axpy_row_ba data ~base ~pr ~(w : acc) ~clo ~chi =
  let c = ref clo in
  while !c + 4 <= chi do
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
  while !c < chi do
    Bigarray.Array1.unsafe_set w !c
      (Bigarray.Array1.unsafe_get w !c
      +. (Array.unsafe_get data (base + !c) *. pr));
    incr c
  done

let dense_dense_acc pool (x : Matrix.Dense.t) ~p_of =
  let workers = Par.Pool.size pool in
  let bounds = Par.Partition.uniform ~n:x.rows ~parts:workers in
  record_accs ~count:workers ~elems:x.cols;
  let parts =
    Par.Pool.map_workers pool (fun wid ->
        let w =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout x.cols
        in
        Bigarray.Array1.fill w 0.0;
        if Kf_obs.Host_stats.profiling () then
          Kf_obs.Host_stats.add_work
            ~rows:(bounds.(wid + 1) - bounds.(wid))
            ~nnz:((bounds.(wid + 1) - bounds.(wid)) * x.cols);
        for r = bounds.(wid) to bounds.(wid + 1) - 1 do
          let pr = p_of r in
          if pr <> 0.0 then
            dense_axpy_row_ba x.data ~base:(r * x.cols) ~pr ~w ~clo:0
              ~chi:x.cols
        done;
        w)
  in
  let merged = Par.Pool.reduce pool ~merge:merge_add_ba parts in
  record_merge_traffic ~workers ~cols:x.cols;
  merged

(* Dense Blocked: pass 1 materialises p over row blocks; pass 2 is the
   owner-computes column-stripe gemv_t from the parallel BLAS with the
   epilogue folded into the owners' final writes. *)
let dense_blocked pool ?tile_rows ?tile_cols (x : Matrix.Dense.t) ~p_of ~alpha
    ~beta_z =
  let p = Array.make x.rows 0.0 in
  record_accs ~count:1 ~elems:x.rows;
  let chunk = row_chunk tile_rows in
  Par.Pool.parallel_for pool ~chunk ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a) ~nnz:((b - a) * x.cols);
      for r = a to b - 1 do
        p.(r) <- p_of r
      done);
  let out = Array.make x.cols 0.0 in
  Matrix.Blas.owner_gemv_t ~pool ?tile_rows ?tile_cols ~credit:false ~alpha
    ?beta_z x p ~out;
  out

let pattern_dense ?pool ?variant ?tile_rows ?tile_cols ~alpha
    (x : Matrix.Dense.t) ?v y ?beta ?z () =
  check_args ~rows:x.rows ~cols:x.cols ~v ~y ~z
    ~name:"Host_fused.pattern_dense";
  if x.rows = 0 || x.cols = 0 then degenerate ~alpha ~beta ~z ~cols:x.cols
  else begin
    let pool, variant =
      prologue ~point:"host_fused.dense" ?pool ?variant ~cols:x.cols ()
    in
    let p_of = dense_row_scalar x y ~v in
    let beta_z = epilogue_of ~beta ~z in
    match variant with
    | Dense_acc ->
        let m = dense_dense_acc pool x ~p_of in
        finalize_ba ~alpha ~beta_z m ~cols:x.cols
    | Blocked -> dense_blocked pool ?tile_rows ?tile_cols x ~p_of ~alpha ~beta_z
  end

(* ---- FusedMM graph kernels ------------------------------------------------ *)

(* The graph kernels pick their loop once per call, not once per edge.
   [fold_rows] and [sample_rows] are written once, taking the
   instantiation, the semiring's edge function and its aggregation
   operator as parameters.  Every call site passes constructors, and the
   functions are [@inline], so the compiler emits one copy per
   combination with those tests folded away.  The per-edge body is then
   straight-line code over unboxed floats: no closure call, no match, no
   C call besides [exp] and no allocation.  (A float passed to or
   returned from a call that is not inlined is boxed, so an
   edge-function closure allocated on every edge.)

   The two scalar helpers below re-derive a library function for the
   same reason: dune's dev profile compiles modules with -opaque, which
   rules out inlining across modules.  The tests compare both with the
   originals. *)

(* [Semiring.logistic], the same two branches. *)
let[@inline] logistic x =
  if x >= 0.0 then 1.0 /. (1.0 +. exp (-.x))
  else
    let e = exp x in
    e /. (1.0 +. e)

let[@inline] apply_edge (edge : Semiring.edge) x =
  match edge with
  | Semiring.Identity -> x
  | Semiring.Logistic -> logistic x

(* [Float.max] without its two C calls ([sign_bit]) per element: the
   same bits, signed zeros included ([max (-0.) 0. = 0.], which [x +. y]
   gives only for zeros), except which NaN it returns when either input
   is one. *)
let[@inline] fmax x y =
  if x > y then x
  else if y > x then y
  else if x = y then if x = 0.0 then x +. y else x
  else if x <> x then x
  else y

let[@inline] combine (op : Semiring.op) a b =
  match op with Semiring.Sum -> a +. b | Semiring.Max -> fmax a b

(* Sampled dense-row dot product with four independent accumulators
   (differs from [Fusedmm.dot_rows] by reassociation only). *)
let[@inline] graph_row_dot data ~d i j =
  let bi = i * d and bj = j * d in
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let c = ref 0 in
  while !c + 4 <= d do
    let c0 = !c in
    acc0 :=
      !acc0
      +. (Array.unsafe_get data (bi + c0) *. Array.unsafe_get data (bj + c0));
    acc1 :=
      !acc1
      +. Array.unsafe_get data (bi + c0 + 1)
         *. Array.unsafe_get data (bj + c0 + 1);
    acc2 :=
      !acc2
      +. Array.unsafe_get data (bi + c0 + 2)
         *. Array.unsafe_get data (bj + c0 + 2);
    acc3 :=
      !acc3
      +. Array.unsafe_get data (bi + c0 + 3)
         *. Array.unsafe_get data (bj + c0 + 3);
    c := c0 + 4
  done;
  let acc = ref (!acc0 +. !acc1 +. (!acc2 +. !acc3)) in
  while !c < d do
    acc :=
      !acc +. (Array.unsafe_get data (bi + !c) *. Array.unsafe_get data (bj + !c));
    incr c
  done;
  !acc

(* Sample row [row]'s stored edges into [dst], edge [k] = (row, j)
   landing at [k - off]: [G_k * edge <H_row, H_j>]. *)
let[@inline] sample_row ~edge (g : Matrix.Csr.t) data ~d ~row dst ~off =
  for k = Array.unsafe_get g.row_off row
      to Array.unsafe_get g.row_off (row + 1) - 1 do
    let j = Array.unsafe_get g.col_idx k in
    Array.unsafe_set dst (k - off)
      (Array.unsafe_get g.values k
      *. apply_edge edge (graph_row_dot data ~d row j))
  done

(* Fold the scaled neighbour row [a * H_j] into the output row starting
   at [zb], 4-way unrolled (each element on its own, so the unrolling
   changes no result). *)
let[@inline] accumulate ~op zd ~zb data ~hb ~a ~d =
  let c = ref 0 in
  while !c + 4 <= d do
    let c0 = !c in
    Array.unsafe_set zd (zb + c0)
      (combine op
         (Array.unsafe_get zd (zb + c0))
         (a *. Array.unsafe_get data (hb + c0)));
    Array.unsafe_set zd (zb + c0 + 1)
      (combine op
         (Array.unsafe_get zd (zb + c0 + 1))
         (a *. Array.unsafe_get data (hb + c0 + 1)));
    Array.unsafe_set zd (zb + c0 + 2)
      (combine op
         (Array.unsafe_get zd (zb + c0 + 2))
         (a *. Array.unsafe_get data (hb + c0 + 2)));
    Array.unsafe_set zd (zb + c0 + 3)
      (combine op
         (Array.unsafe_get zd (zb + c0 + 3))
         (a *. Array.unsafe_get data (hb + c0 + 3)));
    c := c0 + 4
  done;
  while !c < d do
    Array.unsafe_set zd (zb + !c)
      (combine op
         (Array.unsafe_get zd (zb + !c))
         (a *. Array.unsafe_get data (hb + !c)));
    incr c
  done

let credit_rows (g : Matrix.Csr.t) lo hi =
  if Kf_obs.Host_stats.profiling () then
    Kf_obs.Host_stats.add_work ~rows:(hi - lo)
      ~nnz:(g.row_off.(hi) - g.row_off.(lo))

(* Longest row in [lo, hi). *)
let max_row_length (g : Matrix.Csr.t) lo hi =
  let m = ref 0 in
  for r = lo to hi - 1 do
    m := Int.max !m (g.row_off.(r + 1) - g.row_off.(r))
  done;
  !m

(* Rows [lo, hi) of [Z]: each row with stored entries starts from the
   operator's identity and folds its neighbours in place; the others
   keep [Z]'s zeros.  Output rows are disjoint, so domains share
   nothing.  The full chain samples a row's edges into [buf] before
   folding any of them: the sampled dots are independent of each other,
   so the core overlaps them, whereas interleaving dot, edge and fold
   edge by edge chains each edge's fold behind its own dot.  The
   neighbour rows the fold re-reads are then still in L1. *)
let[@inline] fold_rows ~inst ~edge ~op (g : Matrix.Csr.t) (h : Matrix.Dense.t)
    (z : Matrix.Dense.t) lo hi =
  credit_rows g lo hi;
  (* the scalars a row folds with, edge [k] at [k - off]: SpMM's are
     [G]'s own values *)
  let buf =
    match inst with
    | Fusedmm.Spmm -> g.values
    | Fusedmm.Sddmm_spmm -> Array.make (max_row_length g lo hi) 0.0
  in
  let d = h.cols and data = h.data and zd = z.data in
  let col_idx = g.col_idx and row_off = g.row_off in
  for row = lo to hi - 1 do
    let s = Array.unsafe_get row_off row
    and e = Array.unsafe_get row_off (row + 1) in
    if e > s then begin
      let zb = row * d in
      (match op with
      | Semiring.Sum -> () (* [z] is freshly zeroed *)
      | Semiring.Max -> Array.fill zd zb d neg_infinity);
      let off =
        match inst with
        | Fusedmm.Spmm -> 0
        | Fusedmm.Sddmm_spmm ->
            sample_row ~edge g data ~d ~row buf ~off:s;
            s
      in
      for k = s to e - 1 do
        accumulate ~op zd ~zb data
          ~hb:(Array.unsafe_get col_idx k * d)
          ~a:(Array.unsafe_get buf (k - off))
          ~d
      done
    end
  done

let[@inline] sample_rows ~edge (g : Matrix.Csr.t) (h : Matrix.Dense.t) values
    lo hi =
  credit_rows g lo hi;
  for row = lo to hi - 1 do
    sample_row ~edge g h.data ~d:h.cols ~row values ~off:0
  done

(* Shared start of the graph kernels: the armed fault point, then the
   pool; the variant recorded in the ambient Host_stats is always the
   row-disjoint one. *)
let graph_prologue pool =
  Kf_resil.Fault.check Kf_resil.Fault.Launch ~point:"host_fused.graph";
  Kf_obs.Host_stats.set_variant "row-disjoint";
  get_pool pool

let fusedmm ?pool ?(semiring = Semiring.plain) inst (g : Matrix.Csr.t)
    (h : Matrix.Dense.t) =
  Fusedmm.check ~name:"Host_fused.fusedmm" inst g h;
  let z = Matrix.Dense.create g.rows h.cols in
  if g.rows = 0 || h.cols = 0 || Matrix.Csr.nnz g = 0 then z
  else begin
    let pool = graph_prologue pool in
    (* the one dispatch: SpMM never samples, so its edge is moot *)
    let rows =
      let open Semiring in
      match (inst, semiring.edge, semiring.op) with
      | Spmm, _, Sum ->
          fun lo hi -> fold_rows ~inst:Spmm ~edge:Identity ~op:Sum g h z lo hi
      | Spmm, _, Max ->
          fun lo hi -> fold_rows ~inst:Spmm ~edge:Identity ~op:Max g h z lo hi
      | Sddmm_spmm, Identity, Sum ->
          fun lo hi ->
            fold_rows ~inst:Sddmm_spmm ~edge:Identity ~op:Sum g h z lo hi
      | Sddmm_spmm, Identity, Max ->
          fun lo hi ->
            fold_rows ~inst:Sddmm_spmm ~edge:Identity ~op:Max g h z lo hi
      | Sddmm_spmm, Logistic, Sum ->
          fun lo hi ->
            fold_rows ~inst:Sddmm_spmm ~edge:Logistic ~op:Sum g h z lo hi
      | Sddmm_spmm, Logistic, Max ->
          fun lo hi ->
            fold_rows ~inst:Sddmm_spmm ~edge:Logistic ~op:Max g h z lo hi
    in
    Par.Pool.parallel_for pool ~lo:0 ~hi:g.rows rows;
    z
  end

let sddmm ?pool ?(semiring = Semiring.plain) (g : Matrix.Csr.t)
    (h : Matrix.Dense.t) =
  Fusedmm.check ~name:"Host_fused.sddmm" Fusedmm.Sddmm_spmm g h;
  let nnz = Matrix.Csr.nnz g in
  let values = Array.make nnz 0.0 in
  if g.rows > 0 && nnz > 0 then begin
    let pool = graph_prologue pool in
    let rows =
      match semiring.edge with
      | Semiring.Identity ->
          fun lo hi -> sample_rows ~edge:Semiring.Identity g h values lo hi
      | Semiring.Logistic ->
          fun lo hi -> sample_rows ~edge:Semiring.Logistic g h values lo hi
    in
    Par.Pool.parallel_for pool ~lo:0 ~hi:g.rows rows
  end;
  Matrix.Csr.with_values g values

let spmm ?pool ?semiring (s : Matrix.Csr.t) (h : Matrix.Dense.t) =
  Fusedmm.check ~name:"Host_fused.spmm" Fusedmm.Spmm s h;
  fusedmm ?pool ?semiring Fusedmm.Spmm s h
