(** Per-model service-level objectives with a rolling error budget.

    An SLO is "[objective] of the last [window] requests complete
    within [target_us] (and succeed)".  {!record} classifies each
    request; the budget reflects only the outcomes still in the window,
    so a service earns its budget back as compliant requests push old
    violations out.  This is the foundation item 2's deadline-aware
    shedding consumes: shed aggressively as {!budget_remaining}
    approaches zero.

    Violations bump the [kf_slo_violations{model=...}] metric (and no
    other counter, so a scrape counts each one once); the remaining
    budget is published as the [kf_slo_error_budget{model=...}] gauge —
    the scrape endpoint exposes SLO state with no extra wiring.
    Thread-safe. *)

type t

val create : ?window:int -> target_us:float -> objective:float -> string -> t
(** [create ~target_us ~objective model] — [window] defaults to 1024
    requests.  Raises [Invalid_argument] unless [0 < objective < 1] and
    [target_us > 0]. *)

val name : t -> string

val target_us : t -> float

val objective : t -> float

val window : t -> int

val record : t -> latency_us:float -> ok:bool -> unit
(** A request is a violation when it failed ([ok = false]) or exceeded
    [target_us]. *)

val total : t -> int
(** Lifetime requests recorded. *)

val violations : t -> int
(** Lifetime violations. *)

val window_total : t -> int
(** Outcomes currently in the rolling window ([<= window]). *)

val window_violations : t -> int

val budget_remaining : t -> float
(** [1 - window_violations / ((1 - objective) * window_total)], clamped
    to [0, 1].  [1.0] before any request. *)

val compliant : t -> bool
(** [budget_remaining t > 0]. *)

val deadline_shed : ?headroom:float -> t -> estimated_us:float -> bool
(** Deadline-aware shedding decision: [true] when the request's
    [estimated_us] completion time exceeds the target {e and} the
    rolling budget has less than [headroom] (default 0.25) remaining —
    fail fast now rather than slowly.  Predicted-compliant requests are
    never shed, and a healthy budget absorbs predicted violations
    instead of turning them away.  Raises [Invalid_argument] unless
    [headroom] is in [0, 1]. *)

val to_json : t -> Json.t
