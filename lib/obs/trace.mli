(** Span and event recording — the tracing core.

    Recording is off by default and guarded by a single atomic flag
    check, so an instrumented call site costs one load when tracing is
    disabled.  When enabled, each domain appends to its own buffer
    (created lazily through domain-local storage), so recording from
    pool workers never contends on a lock; the global mutex is taken
    only when a domain records its first event and when the buffers are
    read or cleared.

    Reading ({!events}) and clearing ({!clear}) must happen while no
    parallel job is recording — in practice, between executor
    operations, which is where every exporter runs.

    Timestamps come from {!Clock.now_ns}; [tid] is the recording
    domain's id, which Chrome/Perfetto renders as one timeline row per
    domain. *)

type event =
  | Span of {
      name : string;
      ts_ns : int;  (** start *)
      dur_ns : int;
      tid : int;
      args : (string * string) list;
    }
  | Counter_sample of {
      name : string;
      ts_ns : int;
      tid : int;
      values : (string * float) list;
          (** one series per key — e.g. per-domain values keyed ["d0"],
              ["d1"], … rendered as a stacked counter track *)
    }
  | Instant of {
      name : string;
      ts_ns : int;
      tid : int;
      args : (string * string) list;
    }

val event_ts : event -> int
(** Start timestamp of any event. *)

val enabled : unit -> bool

val enable : unit -> unit

val disable : unit -> unit

(** {1 Probabilistic sampling}

    Always-on per-request tracing costs a measured ~3.5% on the serving
    path; sampling records a deterministic subset instead.  The
    decision is a pure hash of [(seed, id)], so the same id samples
    identically on every domain and every run — all of a request's
    spans make the same decision, and a replay with the same seed
    reproduces the same trace. *)

val set_sample : ?seed:int -> float -> unit
(** [set_sample rate] keeps roughly [rate] of ids ([clamped to \[0,1\]];
    default rate is 1.0 — sample everything).  [seed] defaults to 0. *)

val sample_rate : unit -> float

val sampled : int -> bool
(** Deterministic per-id decision under the current (rate, seed). *)

val sample_of_env : ?rate:float -> unit -> unit
(** Install [rate], else the rate from [KF_TRACE_SAMPLE], with the seed
    from [KF_TRACE_SEED]; no-op when neither is given. *)

val file_var : string Env.t
(** [KF_TRACE]: the Chrome trace file [kf] writes when [--trace] is
    absent. *)

val with_suppressed : (unit -> 'a) -> 'a
(** Run [f] with span emission suppressed on this domain — what the
    serving path wraps around work done for an unsampled batch, so
    per-batch infrastructure spans (executor, pool dispatch) obey the
    request sampler too.  Nestable; restored even if [f] raises. *)

val suppressed : unit -> bool

val emitting : unit -> bool
(** [enabled () && not (suppressed ())] — the predicate every emission
    checks.  Layers that hand work to other domains (the pool) should
    capture it on the calling domain at dispatch time, carrying the
    suppression decision across the domain boundary. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when tracing is enabled, records a
    span covering the call (recorded even if [f] raises).  Nested calls
    produce nested intervals on the same [tid]. *)

val complete : name:string -> ?args:(string * string) list -> ts_ns:int ->
  dur_ns:int -> unit -> unit
(** Record an already-measured span — for call sites that time
    themselves and only know the span's arguments (e.g. the dispatch
    decision) after the fact.  No-op when disabled. *)

val instant : ?args:(string * string) list -> string -> unit

val counter_sample : string -> (string * float) list -> unit
(** Record the current value(s) of a counter series at the current
    timestamp.  No-op when disabled. *)

val events : unit -> event list
(** Snapshot of all recorded events across domains, sorted by start
    timestamp; spans starting on the same clock tick are ordered longest
    first, so an enclosing span always precedes its children. *)

val event_count : unit -> int

val dropped : unit -> int
(** Events discarded because a domain hit its buffer cap (2^20 events
    per domain); non-zero means the trace is truncated, not wrong. *)

val clear : unit -> unit
(** Drop all recorded events (and the dropped tally).  Keeps the
    enabled flag as is. *)
