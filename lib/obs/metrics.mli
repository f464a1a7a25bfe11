(** Process-wide labeled time-series registry — the continuous
    counterpart of the one-shot profiling layer.

    Where {!Counter}/{!Trace} answer "what happened during this run",
    the metrics registry answers "what is happening right now": it is
    the store behind the OpenMetrics scrape endpoint
    ({!Openmetrics.render}), the [kf top] live view, and the {!Slo}
    error-budget gauges.

    Three Prometheus-style families — monotonic [counter]s,
    last-write-wins [gauge]s, and cumulative quantile [histogram]s
    (shared {!Histogram} cells).  Cells are keyed by (family name,
    sorted label set); creating the same name+labels twice returns the
    same cell, so modules declare metrics at load time without
    coordination.  Recording costs one atomic load when disabled
    ([KF_METRICS=off]), an atomic CAS or a short mutexed bucket bump when
    enabled. *)

type labels = (string * string) list

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Default: the [KF_METRICS] environment variable, read at the first
    recording and latched (on when unset).  When off, recording is a
    no-op (one atomic load); registration and snapshots still work. *)

type counter

type gauge

type histogram

val counter : ?help:string -> ?labels:labels -> string -> counter
(** [counter name] returns the counter cell for [name] with the given
    label set, creating family and cell on first use.  Raises
    [Invalid_argument] if [name] is already registered with a different
    kind. *)

val gauge : ?help:string -> ?labels:labels -> string -> gauge

val histogram : ?help:string -> ?labels:labels -> string -> histogram

val inc : ?by:float -> counter -> unit
(** [inc ?by c] — [by] defaults to 1 and must be non-negative
    (counters are monotonic). *)

val counter_value : counter -> float

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val histogram_value : histogram -> Histogram.t
(** A consistent copy of the cell's cumulative histogram. *)

(** {1 Snapshots} *)

type value =
  | Vcounter of float
  | Vgauge of float
  | Vhist of Histogram.t

type sample = {
  s_name : string;
  s_help : string;
  s_labels : labels;
  s_value : value;
}

type snapshot = { taken_ns : int; samples : sample list }
(** Samples sorted by (name, labels) — a stable, diffable view. *)

val snapshot : ?process_counters:bool -> unit -> snapshot
(** Consistent copy of every cell.  With [~process_counters:true] the
    profiling layer's {!Counter} registry is folded in as counter
    samples (dotted names are sanitised by the OpenMetrics writer), so
    one scrape exposes the whole process. *)

val find : snapshot -> name:string -> ?labels:labels -> unit -> sample option

val snapshot_diff : before:snapshot -> after:snapshot -> snapshot
(** What happened between two snapshots: counters become deltas
    (clamped at zero), histograms become {!Histogram.diff}, gauges keep
    [after]'s value.  The primitive behind rolling rates and windowed
    percentiles — callers never reset global counters to measure an
    interval. *)

(** Bounded ring of snapshots for rolling rate/percentile queries:
    push one snapshot per tick, query over the retained span. *)
module Window : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 60 snapshots (one minute at a 1 s cadence). *)

  val push : t -> snapshot -> unit

  val span_s : t -> float
  (** Seconds between the oldest and newest retained snapshot; [0]
      until two have been pushed. *)

  val diff : t -> snapshot option
  (** {!snapshot_diff} of newest vs oldest retained. *)

  val rate : t -> name:string -> ?labels:labels -> unit -> float
  (** Counter delta per second over the window; [0] when unknown. *)

  val quantile :
    t -> name:string -> ?labels:labels -> q:float -> unit -> float option
  (** Quantile of a histogram's window diff — a true rolling
      percentile, not a since-startup one.  [None] when the family is
      absent or recorded nothing in the window. *)
end

val reset : unit -> unit
(** Drop every family (tests scope themselves with this; production
    code never calls it). *)
