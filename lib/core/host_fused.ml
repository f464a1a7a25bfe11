type variant = Dense_acc

let variants = [ Dense_acc ]

let variant_name Dense_acc = "dense-acc"

let choose_variant ~domains:_ ~cols:_ () = Dense_acc

let get_pool = function Some p -> p | None -> Par.Pool.default ()

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

(* [into] receives the result, so it must hold one element per column
   and be none of the inputs: the executor's retry after a guard trip
   re-reads the inputs, which must still be clean.  (Empty arrays are
   all one value, and hold nothing to overwrite.) *)
let check_into ~cols ~name ~inputs = function
  | None -> ()
  | Some into ->
      if Array.length into <> cols then
        invalid_arg (name ^ ": into must have one element per column");
      if cols > 0 && List.exists (fun i -> i == into) inputs then
        invalid_arg (name ^ ": into must not be an input vector")

let check_args ~rows ~cols ~v ~y ~z ~into ~name =
  if Array.length y <> cols then
    invalid_arg (name ^ ": y must have one element per column");
  (match v with
  | Some v when Array.length v <> rows ->
      invalid_arg (name ^ ": v must have one element per row")
  | _ -> ());
  (match z with
  | Some z when Array.length z <> cols ->
      invalid_arg (name ^ ": z must have one element per column")
  | _ -> ());
  check_into ~cols ~name into
    ~inputs:(y :: (Option.to_list v @ Option.to_list z))

(* Degenerate shapes never reach the pool: the alpha term is a sum over
   zero rows (or zero columns), so the result is just the epilogue. *)
let degenerate ~alpha ~beta ~z ~cols ~into =
  let w =
    match into with
    | Some w ->
        Array.fill w 0 cols 0.0;
        w
    | None -> Array.make cols 0.0
  in
  Matrix.Blas.finish_pattern ~alpha ~beta ~z w

(* Shared start of the Equation-1 kernels: the armed fault point (it
   only fires under the executor's recovery scope), then the pool.  The
   kernels ignore [?variant]: [Dense_acc] is the only one. *)
let prologue ~point ?pool () =
  Kf_resil.Fault.check Kf_resil.Fault.Launch ~point;
  get_pool pool

let row_scalar ~v y =
  match v with
  | None -> Matrix.Blas.Dot y
  | Some v -> Matrix.Blas.Scaled_dot (y, v)

let pattern_sparse ?pool ?variant:_ ?into ~alpha (x : Matrix.Csr.t) ?v y ?beta
    ?z () =
  check_args ~rows:x.rows ~cols:x.cols ~v ~y ~z ~into
    ~name:"Host_fused.pattern_sparse";
  if x.rows = 0 || x.cols = 0 || Matrix.Csr.nnz x = 0 then
    degenerate ~alpha ~beta ~z ~cols:x.cols ~into
  else
    let pool = prologue ~point:"host_fused.sparse" ?pool () in
    Matrix.Blas.par_xt_sparse ~pool (row_scalar ~v y) ~alpha
      ~beta_z:(epilogue_of ~beta ~z) ?into x

let xt_p ?pool ?variant:_ ?into ~alpha (x : Matrix.Csr.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Host_fused.xt_p: p must have one element per row";
  check_into ~cols:x.cols ~name:"Host_fused.xt_p" ~inputs:[ p ] into;
  if x.rows = 0 || x.cols = 0 || Matrix.Csr.nnz x = 0 then
    degenerate ~alpha ~beta:None ~z:None ~cols:x.cols ~into
  else
    let pool = prologue ~point:"host_fused.sparse" ?pool () in
    Matrix.Blas.par_xt_sparse ~pool (Matrix.Blas.Given p) ~alpha ~beta_z:None
      ?into x

let pattern_dense ?pool ?variant:_ ?into ~alpha (x : Matrix.Dense.t) ?v y ?beta
    ?z () =
  check_args ~rows:x.rows ~cols:x.cols ~v ~y ~z ~into
    ~name:"Host_fused.pattern_dense";
  if x.rows = 0 || x.cols = 0 then
    degenerate ~alpha ~beta ~z ~cols:x.cols ~into
  else
    let pool = prologue ~point:"host_fused.dense" ?pool () in
    Matrix.Blas.par_xt_dense ~pool (row_scalar ~v y) ~alpha
      ~beta_z:(epilogue_of ~beta ~z) ?into x

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
   pool. *)
let graph_prologue pool =
  Kf_resil.Fault.check Kf_resil.Fault.Launch ~point:"host_fused.graph";
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
