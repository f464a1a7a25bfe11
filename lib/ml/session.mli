open Gpu_sim

(** Execution context for ML algorithms.

    An algorithm issues pattern instantiations and BLAS Level-1 work
    through a session; the session dispatches to {!Fusion.Executor} (fused
    or library engine), accumulates simulated GPU time and kernel-launch
    counts, and records every pattern instantiation in a
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
          simulated engines, measured wall-clock for [Host] *)
  it_launches : int;  (** simulated kernel launches (0 for [Host]) *)
}

val create :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?cluster:Kf_dist.Cluster.t ->
  Device.t ->
  algorithm:string ->
  t
(** [pool] selects the domain pool used when [engine] is
    [Fusion.Executor.Host] (default: the shared [Par.Pool.default]
    pool); [cluster] the worker cluster used when [engine] is
    [Fusion.Executor.Dist] (default: the shared [Kf_dist.Cluster.default]
    cluster, sized by [KF_WORKERS]).  Both are ignored by the other
    engines. *)

val device : t -> Device.t

val engine : t -> Fusion.Executor.engine

val algorithm : t -> string

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

(** {1 Checkpoint/restore}

    An algorithm registers a state capture function and a cadence; the
    session then writes a [kf-ckpt/1] file (its own accounting + the
    pattern-trace counts + the algorithm's state) after every [every]-th
    completed iteration.  {!resume} restores the session side and hands
    the payload back so the algorithm can restore its own state
    bit-exactly. *)

val set_checkpoint :
  ?meta:Kf_resil.Ckpt.payload -> t -> path:string -> every:int -> unit
(** [meta] rides along unchanged (e.g. dataset fingerprint fields the
    CLI validates on resume).  Raises [Invalid_argument] if
    [every < 1]. *)

val set_state_fn : t -> (unit -> Kf_resil.Ckpt.payload) -> unit
(** The capture function is called after a completed iteration, so it
    must read the algorithm's current (post-update) state. *)

val resume : t -> path:string -> Kf_resil.Ckpt.payload
(** Restores iteration count, device-time accounting and the pattern
    trace, and returns the full payload.  Raises [Kf_resil.Ckpt.Corrupt]
    on a damaged file and [Invalid_argument] if the checkpoint belongs
    to a different algorithm.  The {!timeline} restarts empty: wall
    times from a previous process are meaningless here. *)

val iteration_json : iteration -> Kf_obs.Json.t

val timeline_json : t -> Kf_obs.Json.t

(** {1 Pattern operations} (traced) *)

val xt_y :
  t -> Fusion.Executor.input -> Matrix.Vec.t -> alpha:float -> Matrix.Vec.t

val pattern :
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

(** {1 Level-1 operations} (timed, not traced — they are outside the
    pattern, the "BLAS-Level 1" column of Table 2) *)

val dot : t -> Matrix.Vec.t -> Matrix.Vec.t -> float

val nrm2 : t -> Matrix.Vec.t -> float

val axpy : t -> float -> Matrix.Vec.t -> Matrix.Vec.t -> Matrix.Vec.t
(** Non-destructive [a*x + y]. *)

val scal : t -> float -> Matrix.Vec.t -> Matrix.Vec.t

val mul_elementwise : t -> Matrix.Vec.t -> Matrix.Vec.t -> Matrix.Vec.t

(** {1 Accounting} *)

val gpu_ms : t -> float
(** Total simulated device time issued through this session. *)

val pattern_ms : t -> float
(** The share spent in pattern operations (vs Level-1). *)

val launches : t -> int

val trace : t -> Fusion.Pattern.Trace.t
