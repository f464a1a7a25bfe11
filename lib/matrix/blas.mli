(** Reference CPU implementations of every operation the paper composes.

    These are the *ground truth*: each simulated GPU kernel (fused or
    library baseline) is tested against this module.  They are also the
    "single-threaded CPU" measurements behind Table 2, so they are written
    as straightforward cache-friendly loops, not cleverness. *)

(** {1 Dense BLAS Level 2} *)

val gemv : Dense.t -> Vec.t -> Vec.t
(** [gemv x y = X x y]; requires [length y = cols]. *)

val gemv_t : Dense.t -> Vec.t -> Vec.t
(** [gemv_t x p = X^T x p]; requires [length p = rows]. *)

(** {1 Sparse (CSR) Level 2} *)

val csrmv : Csr.t -> Vec.t -> Vec.t
(** [csrmv x y = X x y]. *)

val csrmv_t : Csr.t -> Vec.t -> Vec.t
(** [csrmv_t x p = X^T x p] computed by scattering rows — the access
    pattern that is cheap on a CPU but uncoalesced on a GPU. *)

val cscmv : Csc.t -> Vec.t -> Vec.t
(** Multiply using a CSC matrix: [X x y] via column gathers. *)

(** {1 The paper's generic pattern (Equation 1)} *)

val pattern_sparse :
  alpha:float -> Csr.t -> ?v:Vec.t -> Vec.t -> ?beta:float -> ?z:Vec.t ->
  unit -> Vec.t
(** [pattern_sparse ~alpha x ?v y ?beta ?z ()] computes
    [alpha * X^T x (v .* (X x y)) + beta * z].  Omitting [v] means the
    all-ones vector (no element-wise scaling); omitting [beta]/[z] drops
    the additive term.  This single entry point covers every row of
    Table 1. *)

val pattern_dense :
  alpha:float -> Dense.t -> ?v:Vec.t -> Vec.t -> ?beta:float -> ?z:Vec.t ->
  unit -> Vec.t

val finish_pattern :
  alpha:float -> beta:float option -> z:Vec.t option -> Vec.t -> Vec.t
(** [finish_pattern ~alpha ~beta ~z w] applies the trailing BLAS-1 work
    in place: [w <- alpha * w + beta * z], validating that [beta] and
    [z] are given together.  Shared by the sequential and multicore
    pattern entry points so they scale and accumulate identically. *)

(** {1 Multicore variants}

    Parallel versions of the products above running on a [Par.Pool]
    (default: the shared {!Par.Pool.default} pool).  These are the
    "parallel library" baseline of the host backend: the same operator
    chain as the sequential reference, parallelised operator by
    operator, with no fusion across operators.  Row-major products
    partition rows disjointly; transposed products are blocked and
    owner-computes — each worker reduces only the column slice it owns
    (dense: a uniform column stripe walked in row blocks; sparse:
    nnz-weighted column tiles via {!Tiles}) — eliminating the
    per-worker full-width accumulators and tree merge the old scheme
    paid.  Inner loops are 4-way unrolled over unsafe accesses.
    Results match the sequential functions up to floating-point
    summation order.  Tile sizes default to the L2-derived
    {!Par.Tune} values ({!Par.Tune.tile_rows}/{!Par.Tune.tile_cols}). *)

val par_gemv : ?pool:Par.Pool.t -> Dense.t -> Vec.t -> Vec.t

val par_gemv_t :
  ?pool:Par.Pool.t -> ?tile_rows:int -> ?tile_cols:int -> Dense.t -> Vec.t ->
  Vec.t

val par_csrmv : ?pool:Par.Pool.t -> Csr.t -> Vec.t -> Vec.t

val par_csrmv_t : ?pool:Par.Pool.t -> ?tile_cols:int -> Csr.t -> Vec.t -> Vec.t

val owner_gemv_t :
  pool:Par.Pool.t ->
  ?tile_rows:int ->
  ?tile_cols:int ->
  credit:bool ->
  alpha:float ->
  ?beta_z:float * Vec.t ->
  Dense.t ->
  Vec.t ->
  out:Vec.t ->
  unit
(** The owner-computes dense transposed product underlying
    {!par_gemv_t}, exposed so the fused host kernel can reuse it with
    the pattern epilogue [alpha * w + beta * z] folded into each
    worker's final write of its owned stripe.  [out] is fully
    overwritten.  [credit] controls {!Kf_obs.Host_stats} rows/nnz
    accounting — callers that already credited the matrix in an
    earlier pass must pass [false].  Requires [workers >= 1]; with
    zero-size shapes it writes nothing (callers handle degenerate
    shapes). *)

val par_pattern_sparse :
  ?pool:Par.Pool.t ->
  alpha:float -> Csr.t -> ?v:Vec.t -> Vec.t -> ?beta:float -> ?z:Vec.t ->
  unit -> Vec.t
(** [pattern_sparse] as an unfused chain of multicore library calls —
    the honest parallel baseline for the fused host kernels. *)

val par_pattern_dense :
  ?pool:Par.Pool.t ->
  alpha:float -> Dense.t -> ?v:Vec.t -> Vec.t -> ?beta:float -> ?z:Vec.t ->
  unit -> Vec.t

(** {1 Instrumented timing for Table 2}

    [timed_section] buckets wall-clock time by operation class so the
    LR-CG breakdown (pattern ops vs BLAS-1) can be measured on the real
    reference implementation. *)

type op_class = Pattern_op | Blas1_op | Other_op

type time_buckets = {
  mutable pattern_s : float;
  mutable blas1_s : float;
  mutable other_s : float;
}

val fresh_buckets : unit -> time_buckets

val timed : time_buckets -> op_class -> (unit -> 'a) -> 'a

val total_seconds : time_buckets -> float
