(** Synthetic load driver: N client threads against a {!Service}.

    Closed loop ([rps = 0.]) keeps one request in flight per client —
    the regime where batching headroom comes purely from concurrency.
    Open loop ([rps > 0.]) paces submissions at [rps] across all
    clients, so latency includes queueing under overload. *)

type cfg = {
  clients : int;
  rps : float;  (** aggregate offered rate; [0.] = closed loop *)
  duration_s : float;
  seed : int;  (** row-generator seed (deterministic per client) *)
}

type summary = {
  sent : int;
  ok : int;
  shed : int;
  failed : int;
  wall_s : float;
  throughput_rps : float;
  latency_us : Kf_obs.Histogram.t;  (** client-observed, merged over clients *)
}

val run : Service.t -> cols:int -> cfg -> summary
(** Blocks until [duration_s] elapses and all clients finish.  Does not
    shut the service down — callers own its lifecycle. *)

val run_models : Models.t -> cfg -> summary
(** Like {!run}, but each client round-robins across every model in the
    registry (start offset staggered by client id), submitting through
    {!Models.submit} so the residency LRU sees every request.  The
    summary aggregates over models; per-model numbers are in
    {!Models.snapshot}. *)

val run_inflight :
  Service.t -> cols:int -> inflight:int -> duration_s:float -> seed:int ->
  summary
(** Pipelined load from a single thread: bursts of [inflight]
    outstanding requests over pre-generated rows.  Minimal per-request
    driver cost, so throughput reflects the service's per-launch
    economics instead of client thread wakeups — the load model the
    serving benchmark uses. *)

val summary_json : ?service_stats:Service.stats -> summary -> Kf_obs.Json.t
(** Flat fields ([sent], [ok], [shed], [failed], [wall_s],
    [throughput_rps], [p50_us], [p99_us], [latency_us]) plus a
    ["service"] object when [?service_stats] is given. *)
