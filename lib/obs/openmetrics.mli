(** OpenMetrics v1 text exposition writer and reader.

    {!render} turns a {!Metrics.snapshot} into the exposition format
    Prometheus scrapes: one [# TYPE] (and [# HELP] when present) header
    per family, counters with the mandatory [_total] suffix, histograms
    as cumulative [_bucket{le=...}] series (populated buckets only,
    with the implicit [+Inf]) plus [_count]/[_sum], and a final
    [# EOF].  Dotted names from the profiling layer's counter registry
    sanitise to underscores. *)

val sanitize_name : string -> string
(** Map to the metric-name alphabet [[a-zA-Z0-9_:]] (leading digits and
    every other character become [_]). *)

val render : Metrics.snapshot -> string

val to_buffer : Buffer.t -> Metrics.snapshot -> unit

(** {1 Reading an exposition} *)

val parse : string -> (Metrics.snapshot, string) result
(** The inverse of {!render}, and what [kf top] reads a scrape with:
    [parse (render s)] has [s]'s samples (names, kinds, help, labels,
    counter and gauge values bit for bit, and histogram counts, sums
    and buckets, though not the true maximum, which the format does not
    carry), stamped with the time of the parse.  Families are typed by
    their [# TYPE] line, and a sample that no TYPE line claims reads as
    a gauge under its full name.  A malformed line, number, count or
    [le] bound, or a missing [# EOF], is an [Error] naming it; [parse]
    raises nothing. *)
