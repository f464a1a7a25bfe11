(** Multicore host execution of the Equation-1 pattern — the CPU
    analogue of Algorithms 1–3.

    Where the GPU kernels aggregate hierarchically through
    registers -> shared memory -> global atomics, the host kernels use
    the memory tiers a multicore CPU actually has, one level per tier:

    - {b registers -> locals}: each row's dot product accumulates in
      four independent locals (the manual 4-way unrolling mirrors the
      paper's [TL] register-unrolling trick) before any store;
    - {b shared memory -> per-domain buffers}: every domain owns a
      private dense [Bigarray] accumulator for [w], the stand-in for
      the per-block shared-memory buffer;
    - {b global atomics -> tree merge}: per-domain buffers are combined
      by a log-depth tree reduce on the pool, the stand-in for the
      inter-block atomic sweep.

    Work is split across domains by nnz-balanced row partitioning
    ([Par.Partition.by_prefix] over [row_off]), mirroring the tuner's
    Equation-5 coarsening so domains finish together.

    The loops are {!Matrix.Blas.par_xt_sparse} and
    {!Matrix.Blas.par_xt_dense}, which the parallel library baseline
    ([Matrix.Blas.par_csrmv_t], [par_gemv_t]) runs too; this module
    adds argument validation, the degenerate-shape short cut and the
    fault point.

    All entry points compute real results only (no simulator): they are
    the "runs as fast as the hardware allows" backend and are verified
    to match [Matrix.Blas.pattern_sparse]/[pattern_dense] within
    floating-point reassociation error. *)

type variant = Dense_acc  (** per-domain dense accumulators + tree merge *)

val variants : variant list
(** Every variant: [[Dense_acc]]. *)

val variant_name : variant -> string
(** ["dense-acc"]. *)

val choose_variant : domains:int -> cols:int -> unit -> variant
(** Always [Dense_acc], whatever the shape. *)

val check_into :
  cols:int ->
  name:string ->
  inputs:Matrix.Vec.t list ->
  Matrix.Vec.t option ->
  unit
(** [check_into ~cols ~name ~inputs into] applies the [?into] rules
    below (one element per column, physically none of [inputs]),
    raising [Invalid_argument] prefixed with [name]; [Executor] checks
    every engine's [?into] with it. *)

val pattern_sparse :
  ?pool:Par.Pool.t ->
  ?variant:variant ->
  ?into:Matrix.Vec.t ->
  alpha:float ->
  Matrix.Csr.t ->
  ?v:Matrix.Vec.t ->
  Matrix.Vec.t ->
  ?beta:float ->
  ?z:Matrix.Vec.t ->
  unit ->
  Matrix.Vec.t
(** Fused multicore [alpha * X^T (v .* (X y)) + beta * z] for CSR [x]:
    each domain streams its rows once, computing the row dot product and
    scattering it back in the same pass.  Argument conventions (and
    validation) match [Matrix.Blas.pattern_sparse].  Each row's scalar
    is computed inline in the row loop, so what a call allocates on the
    minor heap does not grow with the row count.  Degenerate shapes
    ([rows = 0], [cols = 0] or [nnz = 0]) return [beta * z] (or zeros)
    without touching the pool.

    [into], when given, is where the final [alpha * w + beta * z] pass
    writes, and the call returns it: a solver that passes the same
    buffer on every iteration allocates no result vector.  It must have
    one element per column and be physically none of [y], [v] and [z]
    (raises [Invalid_argument] otherwise): an executor retry after a
    guard trip re-reads the inputs, so they must stay clean.  [xt_p]
    applies the same rules with [p] as the input. *)

val pattern_dense :
  ?pool:Par.Pool.t ->
  ?variant:variant ->
  ?into:Matrix.Vec.t ->
  alpha:float ->
  Matrix.Dense.t ->
  ?v:Matrix.Vec.t ->
  Matrix.Vec.t ->
  ?beta:float ->
  ?z:Matrix.Vec.t ->
  unit ->
  Matrix.Vec.t
(** Dense-row analogue of {!pattern_sparse} (Algorithm 3's structure:
    one streaming pass over [X], partials kept local). *)

val xt_p :
  ?pool:Par.Pool.t ->
  ?variant:variant ->
  ?into:Matrix.Vec.t ->
  alpha:float ->
  Matrix.Csr.t ->
  Matrix.Vec.t ->
  Matrix.Vec.t
(** [xt_p ~alpha x p = alpha * X^T p] — Algorithm 1's host analogue,
    where the per-row scalar arrives precomputed and only the scatter
    (with its hierarchical aggregation) remains.  With [alpha = 1.0] it
    equals [Matrix.Blas.par_csrmv_t] on the same pool bit for bit. *)

(** {1 FusedMM graph kernels}

    Host execution of the ["fusedmm"] family ([Fusedmm]): semiring-
    parameterised SDDMM ⊕ SpMM.  Unlike Equation 1's column scatter,
    the output rows of [Z] are disjoint, so the per-domain-accumulator
    and merge tiers vanish: one row-parallel pass, each domain folding
    its rows in place into the output it owns (4-way unrolled sampled
    dot and axpy).  The full chain samples a row's edges into a
    row-length scratch, then folds them, so the row's sampled dots do
    not wait on each other's folds.

    Each call reads the instantiation and the semiring's [edge]/[op]
    variants once and runs a loop specialised to that combination. The
    per-edge body makes no closure call, no C call other than [exp],
    and no allocation.  What a call allocates does not grow with the
    edge count, only with the longest row. *)

val fusedmm :
  ?pool:Par.Pool.t ->
  ?semiring:Semiring.t ->
  Fusedmm.instantiation ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Dense.t
(** The fused chain without materialising [S]; matches [Fusedmm.fused]
    within floating-point reassociation error of the sampled dot
    (bit for bit when [H] has fewer than 4 columns, except which NaN a
    [Max] over a NaN returns), whatever the pool size.  Degenerate
    shapes return the zero matrix without touching the pool.  Default
    semiring: [Semiring.plain]. *)

val sddmm :
  ?pool:Par.Pool.t ->
  ?semiring:Semiring.t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Csr.t
(** Standalone row-parallel SDDMM (the unfused composition's first
    kernel); same structure as [G], sampled values. *)

val spmm :
  ?pool:Par.Pool.t ->
  ?semiring:Semiring.t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Dense.t
(** Standalone row-parallel SpMM (the unfused composition's second
    kernel). *)
