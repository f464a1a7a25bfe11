(** Network cost model for the sharded execution tier — the wire-level
    mirror of [Gpu.Cost_model]'s memory-system model.

    A transfer of [b] bytes split over [m] messages costs
    [m * latency_us + b / (gbps * 1000)] microseconds: the classic
    alpha-beta (latency + inverse-bandwidth) model.  The parameters are
    calibrated from a live ping/throughput probe over the coordinator's
    own sockets ([Cluster.calibrate]), so the same model prices both
    candidate allreduce layouts:

    - {b 1D}: every worker returns a full dense length-[cols] partial
      [w] — volume [workers * cols * 8] bytes, independent of sparsity.
    - {b 1.5D}: workers return only the column {e blocks} their shard
      touches (hot blocks are effectively replicated across workers and
      reduced at the coordinator) — volume proportional to the touched
      block count, which column-clustered matrices keep far below 1D.

    The analysis follows "Distributed-Memory Sparse Kernels for Machine
    Learning" (Bharadwaj et al., PAPERS.md); DESIGN.md section 14 maps
    the correspondence. *)

type mode = One_d | One_five_d

val mode_name : mode -> string
(** ["1d"] / ["1.5d"] — the [KF_DIST_MODE] spellings. *)

val mode_of_string : string -> mode option

type t = {
  latency_us : float;  (** per-message cost (the alpha term) *)
  gbps : float;  (** link bandwidth in GB/s (the inverse-beta term) *)
}

val default : t
(** Conservative Unix-domain-socket parameters used until a probe runs:
    50 us per message, 4 GB/s. *)

val of_env : unit -> t
(** {!default} with [KF_DIST_LAT_US] / [KF_DIST_GBPS] overrides
    (positive numbers; anything else raises {!Kf_obs.Env.Malformed}). *)

val xfer_us : t -> msgs:int -> bytes:int -> float
(** Alpha-beta cost of moving [bytes] in [msgs] messages. *)

val bytes_1d : workers:int -> cols:int -> int
(** Gather volume of the 1D allreduce: one dense partial per worker. *)

val block_bytes : width:int -> int
(** Wire cost of one 1.5D block: 8 B block id + 8 B per element plus
    the per-block framing overhead. *)

val block_cols_of_env : unit -> int
(** [KF_DIST_BLOCK_COLS] (a positive integer) when set, else 256 — the
    1.5D column-block width, shared by the cluster's sharding and
    plan-time costing so both price the same layout.  Raises
    {!Kf_obs.Env.Malformed} on a malformed value. *)

val expected_touched_blocks :
  cols:int -> nnz_per_worker:float -> block_cols:int -> float
(** Analytic stand-in when the exact per-worker touch map is not
    available (the plan compiler prices candidate shards before any
    data moves): with [B] column blocks and [k] non-zeros thrown
    uniformly, a worker touches [B * (1 - (1 - 1/B)^k)] blocks in
    expectation. *)

val bytes_15d_estimate :
  workers:int -> cols:int -> nnz:int -> block_cols:int -> int
(** Expected 1.5D gather volume under the uniform model above. *)

val choose_mode :
  t -> workers:int -> bytes_1d:int -> bytes_15d:int -> mode * float * float
(** [(mode, us_1d, us_15d)] — the cheaper gather layout under this
    model (both send one message per worker, so the bandwidth term
    decides).  Ties go to 1D (no replication memory cost). *)

val op_us :
  t -> workers:int -> scatter_bytes:int -> gather_bytes:int ->
  compute_us:float -> float
(** End-to-end cost of one distributed op: scatter the per-worker
    inputs, compute (the slowest shard), gather the partials. *)

val recommend :
  t ->
  max_workers:int ->
  cols:int ->
  nnz:int ->
  block_cols:int ->
  seq_compute_us:float ->
  int * mode
(** Analytic worker-count and layout choice: argmin over
    [w in 1..max_workers] of [op_us] with compute scaling as
    [seq_compute_us / w] and the gather priced at the cheaper of 1D /
    estimated 1.5D — what the plan compiler consults before any
    cluster exists. *)
