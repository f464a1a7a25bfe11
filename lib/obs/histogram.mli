(** Constant-memory geometric histogram (factor 1.25 buckets) for
    latency and batch-occupancy summaries: O(1) record, ~12% worst-case
    relative error on quantiles.

    Promoted from the scoring service so the metrics registry
    ({!Metrics}), the SLO tracker ({!Slo}) and the OpenMetrics writer
    ({!Openmetrics}) share one quantile representation.  {!merge} is
    bucket-wise addition — associative and commutative — so per-client
    or per-window histograms combine in any order into the same
    aggregate, and {!diff} recovers what happened between two cumulative
    snapshots (the rolling-window quantile primitive).

    Not thread-safe: each histogram must be recorded into by one domain
    at a time (callers that share one — e.g. a labeled cell in
    {!Metrics} — serialise their own access). *)

type t

val create : unit -> t

val copy : t -> t

val record : t -> float -> unit
(** Record a non-negative value (negative values clamp to 0). *)

val merge : into:t -> t -> unit

val diff : after:t -> before:t -> t
(** [diff ~after ~before] — the samples recorded between the [before]
    and [after] snapshots of one cumulative histogram (bucket-wise
    subtraction, clamped at zero).  The true max of the in-between
    samples is unrecoverable; the highest surviving bucket's upper
    bound, clamped by [after]'s max, stands in. *)

val count : t -> int

val sum : t -> float

val mean : t -> float

val max_value : t -> float

val quantile : t -> float -> float
(** [quantile t 0.99] — an upper-bound estimate within one bucket
    (≤ ~12% high), clamped to the observed maximum; [0] when empty. *)

val cumulative_buckets : t -> (float * int) list
(** [(upper_bound, cumulative_count)] for every populated bucket, in
    increasing bound order — the OpenMetrics [le] series (the writer
    appends the implicit [+Inf]). *)

val of_cumulative :
  buckets:(float * int) list -> count:int -> sum:float -> t
(** Rebuild a histogram from a parsed exposition ([le] bound ×
    cumulative count, plus the [_count]/[_sum] lines) — what
    {!Openmetrics.parse} does with each histogram series.  Inverse of
    {!cumulative_buckets} up to the lost true maximum. *)

val summary_json : t -> Json.t
(** [{count, mean, p50, p95, p99, max}] — quantiles via {!quantile}. *)
