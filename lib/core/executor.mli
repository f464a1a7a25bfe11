open Gpu_sim

(** Public entry point: evaluate any instantiation of the paper's pattern
    with either the fused kernels or the library-composed baseline, on
    sparse or dense data.

    This is the layer an ML algorithm programs against (the paper's
    SystemML integration calls it "backend GPU kernels and APIs"): the
    caller states *what* to compute; dispatch picks *how* following the
    paper's rules — fused kernels whenever applicable, with the sparse
    large-column variant beyond the shared-memory limit, and a fallback to
    two cuBLAS launches for dense matrices too wide for the register
    file. *)

type engine =
  | Fused  (** the paper's kernels (with documented fallbacks) *)
  | Library  (** cuSPARSE/cuBLAS composition *)
  | Host
      (** real multicore execution on a [Par.Pool] of OCaml domains —
          the fused host kernels of [Host_fused] (with parallel host
          BLAS where the paper prescribes library calls).  Unlike the
          simulated engines, [time_ms] is measured wall-clock and
          [reports] is empty.  The pool defaults to [Par.Pool.default]
          (sized by [KF_DOMAINS]); pass [?pool] to override. *)
  | Dist
      (** sharded multi-process execution on a [Kf_dist.Cluster] of
          worker processes (sized by [KF_WORKERS]); row shards computed
          with the sequential reference BLAS and allreduced in 1D or
          1.5D layout as chosen by [Kf_dist.Netmodel].  Wall-clock like
          [Host].  The cluster defaults to [Kf_dist.Cluster.default];
          pass [?cluster] to override.  If the cluster cannot be
          spawned the op falls back to [Host] with a warning. *)

val engines : engine list
(** All engines, in dispatch-preference order:
    [[Fused; Library; Host; Dist]]. *)

val engine_to_string : engine -> string
(** ["fused"], ["library"], ["host"], ["dist"] — the one spelling used
    by the CLI flags, the KF_ENGINE environment variable and the bench
    suites. *)

val engine_of_string : string -> engine option
(** Inverse of {!engine_to_string} (case-insensitive, trimmed); [None]
    for unknown names. *)

val engine_var : engine Kf_obs.Env.t
(** [KF_ENGINE]: the engine [kf] uses when [--engine] is absent. *)

type input = Sparse of Matrix.Csr.t | Dense of Matrix.Dense.t

(** {1 Observability}

    Every op, on every engine, bumps the [executor.ops] counter
    ([executor.host_ops]/[executor.dist_ops] when those engines ran)
    and, when tracing is enabled ([Kf_obs.Trace]), records one
    ["executor.<op>"] span whose [decision] argument is [engine_used]
    and whose [rows], [cols] and [nnz] arguments describe the input;
    its duration is [time_ms] on the [Host] and [Dist] engines.  The
    host kernels record per-domain work into the [Kf_obs.Host_stats]
    sink the caller installed, if any; the executor installs none.
    After each host op, while {!Kf_obs.Trace.emitting}, the sink's
    running totals are sampled onto the [host.*] counter tracks. *)

type result = {
  w : Matrix.Vec.t;
  reports : Sim.report list;
  time_ms : float;
      (** sum over all launched kernels (simulated engines) or measured
          wall-clock (the [Host] and [Dist] engines) *)
  instantiation : Pattern.instantiation option;
      (** [None] for plain [X x y], which is outside the pattern *)
  engine_used : string;
      (** human-readable description of the dispatch decision, e.g.
          ["fused sparse (large-n)"] or ["cublas gemv + gemv_t"] *)
}

val rows : input -> int

val cols : input -> int

val nnz : input -> int
(** Stored non-zeros ([rows * cols] for dense inputs). *)

val bytes : input -> int
(** Device footprint, for the transfer ledger. *)

val xt_y :
  ?engine:engine ->
  ?pool:Par.Pool.t ->
  ?cluster:Kf_dist.Cluster.t ->
  Device.t ->
  input ->
  Matrix.Vec.t ->
  alpha:float ->
  result
(** [alpha * X^T x y] — the first row of Table 1 ([y] has [rows]
    elements). *)

val pattern :
  ?engine:engine ->
  ?pool:Par.Pool.t ->
  ?cluster:Kf_dist.Cluster.t ->
  Device.t ->
  input ->
  y:Matrix.Vec.t ->
  ?v:Matrix.Vec.t ->
  ?beta_z:float * Matrix.Vec.t ->
  alpha:float ->
  unit ->
  result
(** Every other row of Table 1, selected by which optional arguments are
    present. *)

val x_y :
  ?engine:engine ->
  ?pool:Par.Pool.t ->
  ?cluster:Kf_dist.Cluster.t ->
  Device.t ->
  input ->
  Matrix.Vec.t ->
  result
(** Plain [X x y] — not part of the fused pattern (the paper leaves it to
    the libraries, which are already optimal for it), provided so that ML
    algorithms can run entirely through this interface. *)

(** {1 Graph ops — the ["fusedmm"] pattern family}

    Matrix-valued entry points for semiring-parameterised SDDMM ⊕ SpMM
    ([Fusedmm]).  Same engine/recovery story as the vector ops:
    [Fused] runs the single fused simulated kernel, [Library] the
    unfused two-launch composition with [S] materialised, [Host] the
    row-parallel multicore kernels, and [Dist] (which has no graph
    shards yet) defers to [Host] with a warning. *)

(** Matrix-valued result: the payload is an {!input} ([Sparse] for
    SDDMM's sampled matrix, [Dense] for aggregated embeddings), and the
    pattern identity is a family-generic descriptor rather than an
    Equation-1 instantiation. *)
type mat_result = {
  m_value : input;
  m_reports : Sim.report list;
  m_time_ms : float;
  m_desc : Pattern_family.descriptor option;
      (** what a [Pattern.Trace] should record; [None] for standalone
          SDDMM, which is a building block rather than an
          instantiation *)
  m_engine_used : string;
}

val fusedmm :
  ?engine:engine ->
  ?pool:Par.Pool.t ->
  ?semiring:Semiring.t ->
  Device.t ->
  Fusedmm.instantiation ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  mat_result
(** [fusedmm device inst g h]: the fused chain
    [Z_i = op_j (G_ij * edge(<H_i,H_j>) * H_j)] (or its SpMM floor)
    without materialising [S].  Default semiring: [Semiring.plain]. *)

val sddmm :
  ?engine:engine ->
  ?pool:Par.Pool.t ->
  ?semiring:Semiring.t ->
  Device.t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  mat_result
(** Standalone SDDMM: [S_ij = G_ij * edge(<H_i,H_j>)], same sparsity as
    [G] ([m_value] is [Sparse]). *)

val spmm :
  ?engine:engine ->
  ?pool:Par.Pool.t ->
  ?semiring:Semiring.t ->
  Device.t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  mat_result
(** Standalone SpMM: [Z_i = op_j (S_ij * H_j)] ([m_value] is
    [Dense]). *)
