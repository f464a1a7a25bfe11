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
      the per-block shared-memory buffer ([Dense_acc] variant);
    - {b global atomics -> tree merge}: per-domain buffers are combined
      by a log-depth tree reduce on the pool, the stand-in for the
      inter-block atomic sweep.

    Work is split across domains by nnz-balanced row partitioning
    ([Par.Partition.by_prefix] over [row_off]), mirroring the tuner's
    Equation-5 coarsening so domains finish together.

    Past a working-set budget (or half an L2 per domain —
    {!Par.Tune.prefer_owner_computes}) the per-domain accumulators plus
    merge stop paying and the kernels switch to the {b blocked
    owner-computes} variant: a row-blocked parallel pass materialises
    the per-row scalars [p], then each domain scatters only into the
    column tiles it owns ([Matrix.Tiles] for CSR,
    [Matrix.Blas.owner_gemv_t] column stripes for dense), sized via
    [KF_HOST_TILE_ROWS]/[KF_HOST_TILE_COLS] so a tile's slice of [w]
    stays L2-resident.  Ownership is exclusive, so the merge — and its
    O(domains * cols) traffic — disappears, and the pattern epilogue
    [alpha * w + beta * z] folds into each owner's final write.
    [KF_HOST_VARIANT] forces either variant by name for experiments.

    All entry points compute real results only (no simulator): they are
    the "runs as fast as the hardware allows" backend and are verified
    to match [Matrix.Blas.pattern_sparse]/[pattern_dense] within
    floating-point reassociation error. *)

type variant =
  | Dense_acc  (** per-domain dense accumulators + tree merge *)
  | Blocked
      (** owner-computes column tiles, cached segment layout, no merge *)

val variants : variant list
(** Every variant: [[Dense_acc; Blocked]]. *)

val variant_name : variant -> string
(** ["dense-acc"] or ["blocked"]. *)

val variant_of_name : string -> variant option
(** Inverse of {!variant_name}; [None] for unknown names. *)

val default_accumulator_budget_bytes : unit -> int
(** Working-set budget for per-domain accumulators: the
    [KF_HOST_ACC_BYTES] environment variable when set to a positive
    integer, else 256 MiB (see {!Par.Tune.accumulator_budget_bytes}). *)

val choose_variant :
  ?budget_bytes:int -> domains:int -> cols:int -> unit -> variant
(** [KF_HOST_VARIANT] ("dense-acc" | "blocked") when set to a valid
    name (an unknown name is ignored here; the CLI rejects it, see
    [Sysml.Env.host_variant]); otherwise [Dense_acc] while
    [8 * cols * domains] fits both [budget_bytes] and half an L2 per
    domain, else [Blocked] ({!Par.Tune.prefer_owner_computes}). *)

val pattern_sparse :
  ?pool:Par.Pool.t ->
  ?variant:variant ->
  ?tile_rows:int ->
  ?tile_cols:int ->
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
    scattering it back in the same pass ([Dense_acc]), or runs the
    two-pass blocked owner-computes kernel ([Blocked]).  Argument
    conventions (and validation) match [Matrix.Blas.pattern_sparse].
    [variant] defaults to {!choose_variant}; [tile_rows]/[tile_cols]
    override the L2-derived {!Par.Tune} tile sizes for the blocked
    variant.  Degenerate shapes ([rows = 0], [cols = 0] or [nnz = 0])
    return [beta * z] (or zeros) without touching the pool. *)

val pattern_dense :
  ?pool:Par.Pool.t ->
  ?variant:variant ->
  ?tile_rows:int ->
  ?tile_cols:int ->
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
  ?tile_rows:int ->
  ?tile_cols:int ->
  alpha:float ->
  Matrix.Csr.t ->
  Matrix.Vec.t ->
  Matrix.Vec.t
(** [xt_p ~alpha x p = alpha * X^T p] — Algorithm 1's host analogue,
    where the per-row scalar arrives precomputed and only the scatter
    (with its hierarchical aggregation) remains. *)

(** {1 FusedMM graph kernels}

    Host execution of the ["fusedmm"] family ([Fusedmm]): semiring-
    parameterised SDDMM ⊕ SpMM.  Unlike Equation 1's column scatter,
    the output rows of [Z] are disjoint, so the per-domain-accumulator
    and merge tiers vanish: one row-parallel pass, the per-row
    accumulator in locals (4-way unrolled sampled dot and axpy), each
    domain writing only the rows it owns. *)

val fusedmm :
  ?pool:Par.Pool.t ->
  ?semiring:Semiring.t ->
  Fusedmm.instantiation ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Dense.t
(** The fused chain without materialising [S]; matches [Fusedmm.fused]
    within floating-point reassociation error.  Degenerate shapes
    return the zero matrix without touching the pool.  Default
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
