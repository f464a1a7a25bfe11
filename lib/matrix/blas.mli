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
    partition rows disjointly.  Transposed products run {!par_xt_sparse}
    and {!par_xt_dense}, the kernels the fused host backend runs too.
    Inner loops are 4-way unrolled over unsafe accesses, and no row's
    dot product allocates.  Results match the sequential functions up
    to floating-point summation order; with a pool of one domain the
    transposed products equal {!csrmv_t} and {!gemv_t} bit for bit. *)

val par_gemv : ?pool:Par.Pool.t -> Dense.t -> Vec.t -> Vec.t

val par_gemv_t : ?pool:Par.Pool.t -> Dense.t -> Vec.t -> Vec.t

val par_csrmv : ?pool:Par.Pool.t -> Csr.t -> Vec.t -> Vec.t

val par_csrmv_t : ?pool:Par.Pool.t -> Csr.t -> Vec.t -> Vec.t

val par_pattern_sparse :
  ?pool:Par.Pool.t ->
  alpha:float -> Csr.t -> ?v:Vec.t -> Vec.t -> ?beta:float -> ?z:Vec.t ->
  unit -> Vec.t
(** [pattern_sparse] as an unfused chain of multicore library calls —
    the honest parallel baseline for the fused host kernels. *)

(** {1 Per-domain-accumulator transposed kernels}

    The one way a host kernel aggregates [X^T s], shared by the parallel
    BLAS above and the fused host backend ([Fusion.Host_fused]).  Each
    domain takes a contiguous range of rows (nnz-balanced by
    [Par.Partition.by_prefix] for CSR, [Par.Partition.uniform] for
    dense), computes each row's scalar [s.(r)] inline, and scatters
    [s.(r) * X.(r)] into a private full-width accumulator.  A tree
    reduce on the pool ({!Par.Pool.reduce}) merges the accumulators, and
    one final pass writes [alpha * w + beta * z].

    The accumulators belong to the calling domain (domain-local state,
    not the pool's): a pool serialises jobs, not ops, so another
    domain's op on the same pool may run between this op's scatter and
    its merge, and must not find these partials.  Each worker's
    accumulator is a separate allocation that the worker makes itself,
    with a 128-byte tail no op writes, so no two workers write the same
    cache line.  They are reused from call to call and zeroed on each,
    and grow to the widest op the domain has run.  Host_stats still
    records one accumulator of [8 * cols] bytes per domain per call
    (the call's working set, reused or not) and [24 * cols] merge bytes
    per pairwise merge.

    [into], when given, receives the result, which is then [into]
    itself; otherwise the result is a fresh vector.  No argument is
    validated here: the callers check lengths and that [into] aliases
    no input. *)

(** Where a row's scalar comes from: a dot product with [y]
    (Algorithm 2's first walk), that dot scaled by [v.(r)], or a
    precomputed [p.(r)] (Algorithm 1). *)
type row_scalar =
  | Dot of Vec.t
  | Scaled_dot of Vec.t * Vec.t
  | Given of Vec.t

val par_xt_sparse :
  pool:Par.Pool.t ->
  row_scalar ->
  alpha:float ->
  beta_z:(float * Vec.t) option ->
  ?into:Vec.t ->
  Csr.t ->
  Vec.t
(** [par_xt_sparse ~pool src ~alpha ~beta_z x] is
    [alpha * X^T s + beta * z], where [s.(r)] comes from [src]. *)

val par_xt_dense :
  pool:Par.Pool.t ->
  row_scalar ->
  alpha:float ->
  beta_z:(float * Vec.t) option ->
  ?into:Vec.t ->
  Dense.t ->
  Vec.t
(** Dense-row analogue of {!par_xt_sparse}. *)

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
