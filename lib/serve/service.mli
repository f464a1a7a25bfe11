(** In-process scoring service with a micro-batching scheduler.

    Clients {!submit} single-row scoring requests; a dedicated scheduler
    domain coalesces all requests arriving within a bounded window into
    one dense/CSR block, runs a single batched predict through
    {!Fusion.Executor} (one launch per weight vector, whatever the batch
    size), and scatters scores back to per-request tickets.  The serving
    counterpart of the paper's launch amortisation: N coalesced requests
    cost the launches of one.

    The coalescing window is fixed ([config.window_us]) or adaptive
    ([config.adaptive]): {!Controller} decays it to 0 under sparse
    traffic and grows it toward [window_cap_us] when batches co-arrive
    under-filled, so nobody tunes a window per traffic mix.

    Admission is bounded: once [queue_depth] requests are waiting,
    further submissions are shed (returned [None]) instead of growing
    the queue without bound.  With [config.deadline_shed] and an
    attached SLO, requests *predicted* to miss the latency target are
    also shed — but only while the SLO's rolling error budget is nearly
    spent ({!Kf_obs.Slo.deadline_shed}).

    Weights are hot-swappable: {!swap} publishes a new generation
    atomically, and each batch scores entirely against one generation —
    never a mix ({!generation} on a resolved ticket says which).  A
    batch whose execution fails even after the executor's own recovery
    chain is retried once; if that also fails every request in it
    resolves to {!Failed} — requests are never silently dropped. *)

type row =
  | Dense_row of float array  (** exactly [cols] features *)
  | Sparse_row of int array * float array
      (** strictly increasing column indices in [\[0, cols)] *)

type outcome = Score of float | Failed of string

type ticket
(** One in-flight request; resolves exactly once. *)

type config = {
  window_us : int;
      (** fixed coalescing window measured from the oldest request in
          the forming batch; [0] disables batching (every request is a
          batch of one — the unbatched baseline).  Ignored when
          [adaptive]. *)
  max_batch : int;  (** batch-size cap; a backlog drains at this size *)
  queue_depth : int;  (** admission bound; beyond it requests are shed *)
  adaptive : bool;
      (** steer the window per dispatch with {!Controller} instead of
          holding [window_us] *)
  window_cap_us : int;  (** adaptive window's upper bound *)
  deadline_shed : bool;
      (** shed predicted SLO violations while the error budget is nearly
          spent; needs an attached SLO, otherwise inert *)
}

val default_config : config
(** [{window_us = 200; max_batch = 32; queue_depth = 1024;
    adaptive = true; window_cap_us = 500; deadline_shed = false}]. *)

val config_of_env : unit -> config
(** {!default_config} overridden by [KF_SERVE_WINDOW_US],
    [KF_SERVE_MAX_BATCH], [KF_SERVE_QUEUE], [KF_SERVE_ADAPTIVE],
    [KF_SERVE_WINDOW_CAP_US] and [KF_SERVE_DEADLINE_SHED].  Setting
    [KF_SERVE_WINDOW_US] pins that fixed window (adaptive off) unless
    [KF_SERVE_ADAPTIVE] explicitly turns the controller back on. *)

type t

val create :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?config:config ->
  ?start:bool ->
  ?model:string ->
  ?slo:Kf_obs.Slo.t ->
  Gpu_sim.Device.t ->
  algo:(module Kf_ml.Algorithm.S) ->
  weights:Kf_ml.Algorithm.weights ->
  unit ->
  t
(** [create device ~algo ~weights ()] builds the service and (unless
    [~start:false]) spawns its scheduler domain.  [?config] defaults to
    {!config_of_env}.  Engine defaults to [Fused].  [?model] labels the
    service's time-series in the metrics registry (default: the
    algorithm's name); [?slo] attaches a latency objective — every
    resolved request is recorded against it.  The initial weights are
    generation 1. *)

val start : t -> unit
(** Spawn the scheduler if [create ~start:false] deferred it (tests use
    this to fill the queue deterministically first).  Idempotent. *)

val config : t -> config

val current_window_us : t -> int
(** The coalescing window in force right now: [config.window_us] when
    fixed, the controller's latest output when adaptive. *)

val submit : t -> row -> ticket option
(** [None] when the queue is at [queue_depth], or when deadline
    shedding rejects the request (both count as shed).  Raises
    [Invalid_argument] on malformed rows or after {!shutdown}. *)

val await : ticket -> outcome
(** Block until the request resolves. *)

val latency_ns : ticket -> int
(** Enqueue-to-resolve latency; raises if the ticket has not resolved. *)

val generation : ticket -> int
(** Weight generation that scored this request — every request of one
    batch reports the same value.  Raises if the ticket has not
    resolved. *)

val shutdown : t -> unit
(** Stop admitting, drain every queued request (without window waits),
    and join the scheduler. *)

(** {2 Weight residency and hot-swap} *)

val swap : t -> ?checksum:string -> Kf_ml.Algorithm.weights -> int
(** Publish new weights atomically and return their generation number.
    In-flight batches finish on the old generation; no batch ever mixes
    the two.  [?checksum] defaults to
    {!Kf_ml.Algorithm.weights_checksum}.  Raises [Invalid_argument] if
    the column count differs from the service's. *)

val unload : t -> bool
(** Drop the resident weights (LRU eviction calls this).  Returns
    [false] if already unloaded.  The next batch re-materialises
    through the provider — or resolves [Failed] if none is set. *)

val loaded : t -> bool

val live_generation : t -> int option
(** Generation currently serving, [None] when unloaded. *)

val live_checksum : t -> string option
(** Checksum of the weights currently serving (the swap-equality
    witness hot-swap tests compare against the checkpoint's). *)

val set_provider : t -> (unit -> Kf_ml.Algorithm.weights * string) -> unit
(** Install the re-materialisation source consulted when a batch finds
    the weights unloaded: returns [(weights, checksum)] (the registry
    layer re-reads the model's checkpoint).  A provider that raises
    fails the batch, not the scheduler. *)

type stats = {
  accepted : int;
  shed : int;  (** admission + deadline sheds *)
  deadline_shed : int;  (** subset of [shed] from the deadline predictor *)
  batches : int;
  failures : int;  (** requests resolved [Failed] *)
  batch_retries : int;
  swaps : int;  (** weight generations published after the first *)
  exec_ms : float;  (** summed executor time across batches *)
  queue_us : Kf_obs.Histogram.t;  (** submit-to-dispatch wait *)
  latency_us : Kf_obs.Histogram.t;  (** submit-to-resolve *)
  occupancy : Kf_obs.Histogram.t;  (** rows per executed batch *)
}

val stats : t -> stats
(** Consistent snapshot (histograms are copies). *)

val stats_json : stats -> Kf_obs.Json.t
(** Histogram fields are quantile summaries ([{count, mean, p50, p95,
    p99, max}] via {!Kf_obs.Histogram.quantile}), never raw bucket
    dumps. *)

val request_id : ticket -> int
(** Process-wide request id — the trace-correlation key ([rid] on the
    request's spans) and the input to the deterministic trace
    sampler. *)

val model : t -> string
(** The service's metric/SLO label. *)

val cols : t -> int
(** Feature count the model expects per row. *)

val slo : t -> Kf_obs.Slo.t option

val snapshot : t -> Kf_obs.Json.t
(** {!stats_json} of a fresh {!stats}, plus the model label, the window
    in force, the live generation and — when an SLO is attached — its
    state ([slo.error_budget], [slo.violations], …).  What
    [kf serve --json] embeds under ["service"]. *)
