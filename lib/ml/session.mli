open Gpu_sim

(** Execution context for ML algorithms.

    An algorithm issues pattern instantiations and BLAS Level-1 work
    through a session; the session dispatches to {!Fusion.Executor} on
    its engine, accumulates device time and kernel-launch counts, and
    records every pattern instantiation in a
    {!Fusion.Pattern.Trace} — the raw material from which Table 1 is
    regenerated and Tables 5/6 are timed.  Host-engine work records
    into whatever [Kf_obs.Host_stats] sink the caller installed; the
    session keeps no host aggregate of its own. *)

type t

(** One timeline entry, recorded by {!iteration}. *)
type iteration = {
  it_index : int;  (** 0-based iteration number within the session *)
  it_wall_ns : int;  (** real time spent inside the iteration body *)
  it_device_ms : float;
      (** device time the iteration issued: simulated ms for the
          simulated engines; for [Host] and [Dist], the measured
          wall-clock of its executor ops, so at most [it_wall_ns] *)
  it_launches : int;  (** simulated kernel launches (0 off the simulator) *)
}

val create :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  Device.t ->
  algorithm:string ->
  t
(** [pool] is the domain pool of a [Fusion.Executor.Host] session
    (default: the shared [Par.Pool.default]); a [Fusion.Executor.Dist]
    session runs on the shared [Kf_dist.Cluster.default], sized by
    [KF_WORKERS].  [checkpoint:(path, every)] makes {!iteration} write
    a [kf-ckpt/1] file after every [every]-th completed iteration (see
    {!state}), carrying the [ckpt_meta] fields unchanged (e.g. the
    dataset fingerprint the CLI validates on resume).  Raises
    [Invalid_argument] if [every < 1]. *)

(** {1 Iteration timeline} *)

val iteration : t -> (unit -> 'a) -> 'a
(** [iteration t body] runs one algorithm iteration: assigns it the next
    index, appends an entry to {!timeline} with the iteration's wall
    time and the device time / launches it issued, and (when tracing is
    enabled) records an ["iter"] span so per-iteration structure shows
    up in the Chrome trace.  The entry is recorded even if [body]
    raises. *)

val timeline : t -> iteration list
(** Chronological *)

(** {1 Solver state: checkpoint and resume}

    A solver declares its state once, as named fields over its own
    references and buffers.  Every checkpoint captures them in list
    order, after the session's accounting, its pattern-trace counts
    and [ckpt_meta]; a resume restores all of it, so the resumed solve
    continues bit-exactly. *)

module State : sig
  type t
  (** One named field of a solver's state. *)

  val int : string -> int ref -> t

  val float : string -> float ref -> t

  val flag : string -> bool ref -> t
  (** Stored as an int field: 1 for [true], 0 for [false]. *)

  val vec : string -> Matrix.Vec.t ref -> t
  (** A vector the solver replaces as it goes; a restore replaces it
      too, with one as long as [!r] when the state is declared. *)

  val buffer : string -> Matrix.Vec.t -> t
  (** A vector the solver overwrites in place (Linreg_cg's [w]); a
      restore writes the stored vector, which must be as long, into it. *)
end

val state : ?resume:string -> t -> State.t list -> bool
(** [state ?resume t fields] declares the fields every later checkpoint
    captures; call it once, before the first {!iteration}.  With
    [resume:path] it then restores the session's iteration count,
    accounting and pattern trace and every field from that checkpoint
    and returns [true], and the solver skips its own initialisation;
    otherwise it returns [false].  The {!timeline} restarts empty on
    resume: wall times from a previous process mean nothing here.
    Raises [Kf_resil.Ckpt.Corrupt] on a damaged file, a missing or
    mistyped field, or a vector field of another length (naming it),
    and [Invalid_argument] if another algorithm wrote the checkpoint. *)

val iteration_json : iteration -> Kf_obs.Json.t

(** {1 Pattern operations} (traced)

    [into], when given, receives the result, which is then [into]
    itself, on every engine ([Fusion.Executor.pattern]'s contract): the
    fused host kernels write straight into it.  It must have one element per
    column and must not be [y], [v] or [z] (raises [Invalid_argument]).
    A solver that keeps one buffer per vector across its iterations
    allocates no vector per iteration. *)

val xt_y :
  ?into:Matrix.Vec.t ->
  t -> Fusion.Executor.input -> Matrix.Vec.t -> alpha:float -> Matrix.Vec.t

val pattern :
  ?into:Matrix.Vec.t ->
  t ->
  Fusion.Executor.input ->
  y:Matrix.Vec.t ->
  ?v:Matrix.Vec.t ->
  ?beta_z:float * Matrix.Vec.t ->
  alpha:float ->
  unit ->
  Matrix.Vec.t

val x_y : t -> Fusion.Executor.input -> Matrix.Vec.t -> Matrix.Vec.t

(** {1 Graph operations} (traced through family-generic descriptors —
    the ["fusedmm"] family of [Fusion.Fusedmm]).  [Dist] sessions run
    these on the host tier, see [Fusion.Executor]. *)

val sddmm :
  ?semiring:Fusion.Semiring.t ->
  t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Csr.t
(** [S_ij = G_ij * edge(<H_i,H_j>)] — untraced (a building block, not a
    family instantiation). *)

val spmm :
  ?semiring:Fusion.Semiring.t ->
  t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Dense.t
(** [Z_i = op_j (S_ij * H_j)] — the family's fusable floor. *)

val fusedmm :
  ?semiring:Fusion.Semiring.t ->
  t ->
  Fusion.Fusedmm.instantiation ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Dense.t
(** The fused SDDMM ⊕ SpMM chain without materialising [S]. *)

(** {1 Level-1 operations} (not traced — they are outside the pattern,
    the "BLAS-Level 1" column of Table 2)

    On the simulated engines each op is one simulated cuBLAS launch
    whose time and launch count the session absorbs.  [Host] and [Dist]
    sessions run the same arithmetic ([Matrix.Vec]) on the calling
    domain and absorb nothing: no kernel launched, and the iteration's
    wall clock already holds the time. *)

val dot : t -> Matrix.Vec.t -> Matrix.Vec.t -> float

val nrm2 : t -> Matrix.Vec.t -> float

val axpy :
  ?into:Matrix.Vec.t ->
  t ->
  float ->
  Matrix.Vec.t ->
  Matrix.Vec.t ->
  Matrix.Vec.t
(** [a*x + y]: a fresh vector, or [into] when given.  [into] may be [x]
    or [y] (the op is element-wise), so [axpy ~into:y t a x y] updates
    [y] in place.  Costs the same simulated launch either way. *)

val scal : ?into:Matrix.Vec.t -> t -> float -> Matrix.Vec.t -> Matrix.Vec.t
(** [a*x]: a fresh vector, or [into] (which may be [x]) when given. *)

val mul_elementwise : t -> Matrix.Vec.t -> Matrix.Vec.t -> Matrix.Vec.t

(** {1 Accounting} *)

val gpu_ms : t -> float
(** Total device time issued through this session, as {!iteration}'s
    [it_device_ms] counts it. *)

val pattern_ms : t -> float
(** The share spent in pattern operations (vs Level-1). *)

val launches : t -> int

val trace : t -> Fusion.Pattern.Trace.t
