(** Coordinator side of the sharded multi-process execution tier.

    A cluster is N worker processes (re-execs of the current binary,
    see {!Worker}) connected over Unix-domain socketpairs.  Matrices
    are sharded by rows with [Par.Partition.by_prefix] (nnz-balanced
    for CSR), shipped once, and cached on both sides under a matrix id
    keyed by physical identity, so a training loop ships its shards
    once and re-uses them across iterations.

    Every op follows the same protocol: scatter the per-worker inputs,
    compute on each shard with the sequential reference BLAS, gather
    and reduce the partials {e in worker order} — a fixed association
    order, so results are deterministic for a given worker count and
    bit-exact across crash-respawn recoveries.  The allreduce layout
    (1D dense partials vs 1.5D touched column blocks) is chosen per
    matrix by {!Netmodel.choose_mode} from the exact per-worker block
    touch counts; [KF_DIST_MODE=1d|1.5d] forces it ({!forced_mode}).

    Worker death (including [KF_FAULTS] [crash] rules firing at
    [dist.worker.op]) is recovered in place: the coordinator respawns
    the worker with fault injection cleared — the same
    retry-without-injection contract as the executor's recovery chain —
    re-sends its shard, and repeats the op.  Unrecoverable setup
    failures raise {!Unavailable}, which the executor turns into a
    fallback to the [Host] engine. *)

type t

exception Unavailable of string
(** Spawning or handshaking with workers failed (bad executable, fork
    limits, a worker that keeps dying).  The caller should fall back
    to single-process execution. *)

val default_size : unit -> int
(** [KF_WORKERS] (an integer in [1, 64]) when set, else
    [Domain.recommended_domain_count ()] clamped to [1, 8].  Raises
    {!Kf_obs.Env.Malformed} on a malformed [KF_WORKERS]. *)

val forced_mode : unit -> Netmodel.mode option
(** The layout [KF_DIST_MODE] forces on every op, if set. *)

val create : ?workers:int -> unit -> t
(** Spawn a fresh cluster ([workers] defaults to {!default_size}).
    Raises [Invalid_argument] if [workers < 1], {!Unavailable} when
    spawning fails. *)

val shared : workers:int -> t
(** Process-wide cluster of the given size, spawned on first use and
    reused after (shut down at exit) — the dist analogue of
    [Par.Pool.default]. *)

val default : unit -> t
(** [shared ~workers:(default_size ())]. *)

val size : t -> int

val shutdown : t -> unit
(** Send [Shutdown], reap the worker processes, close the sockets.
    Shared clusters are shut down automatically at exit. *)

(** {1 Sharded operations}

    All entry points validate dimensions up front (raising
    [Invalid_argument] like the reference BLAS) and return
    freshly-allocated result vectors. *)

val pattern_sparse :
  t -> Matrix.Csr.t -> y:float array -> ?v:float array ->
  ?beta_z:float * float array -> alpha:float -> unit -> float array
(** [alpha * X^T (v .* (X y)) + beta * z] with X row-sharded; the
    epilogue is applied once at the coordinator. *)

val pattern_dense :
  t -> Matrix.Dense.t -> y:float array -> ?v:float array ->
  ?beta_z:float * float array -> alpha:float -> unit -> float array

val xt_y_sparse : t -> Matrix.Csr.t -> y:float array -> alpha:float -> float array

val xt_y_dense : t -> Matrix.Dense.t -> y:float array -> alpha:float -> float array

val x_y_sparse : t -> Matrix.Csr.t -> float array -> float array
(** Row-disjoint gather — no allreduce, each worker returns its row
    slice. *)

val x_y_dense : t -> Matrix.Dense.t -> float array -> float array

(** {1 Cost model} *)

val netmodel : t -> Netmodel.t
(** The model used for mode selection: probe results after
    {!calibrate}, [Netmodel.of_env] defaults before. *)

val calibrate : t -> Netmodel.t
(** Measure per-message latency (median of small-frame round trips)
    and bandwidth (large-payload round trips) against worker 0, install
    the result as this cluster's model, and return it. *)

(** {1 Observability} *)

type stats = {
  st_workers : int;
  st_ops : int;  (** distributed ops completed *)
  st_respawns : int;  (** workers respawned after death *)
  st_bytes_sent : int;
  st_bytes_received : int;
  st_last_mode : string;  (** ["1d"], ["1.5d"], or ["-"] before any op *)
  st_imbalance : float;  (** max shard weight / mean shard weight *)
  st_replicated_blocks : int;
      (** column blocks touched by ≥ 2 workers under the last shard
          map — the 1.5D replication set *)
  st_bytes_1d : int;  (** per-op gather volume if the last matrix ran 1D *)
  st_bytes_15d : int;  (** … and if it ran 1.5D *)
}

val stats : t -> stats

val worker_compute : t -> Kf_obs.Histogram.t
(** Pull each worker's compute-time histogram ([Stats_req]) and
    [Kf_obs.Histogram.merge] them into one aggregate — the cross-process
    use of the mergeable histogram.  The same series is also recorded
    coordinator-side per op into the [kf_dist_worker_compute_us]
    registry family (labeled by worker). *)

val describe : t -> string
(** e.g. ["dist 1d [4 workers]"] — the executor's [engine_used]
    string. *)
