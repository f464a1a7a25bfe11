(** Process-wide registry of named monotonic counters.

    The host analogue of the simulator's event tallies: cheap enough to
    leave always on (one atomic add per bump, at per-operation — never
    per-element — granularity), readable at any point as a consistent
    snapshot.  Counters only ever increase, except through
    {!reset_all}, which tests and the CLI use to scope a measurement. *)

type t

val make : string -> t
(** [make name] returns the counter registered under [name], creating it
    on first use — calling [make] twice with the same name yields the
    same counter, so modules can declare their counters at load time
    without coordination. *)

val name : t -> string

val add : t -> int -> unit
(** [add t n] with [n < 0] raises [Invalid_argument]: counters are
    monotonic by construction. *)

val incr : t -> unit

val value : t -> int

val all : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

type snapshot = (string * int) list

val snapshot : unit -> snapshot
(** Alias of {!all}: a consistent named snapshot to diff later. *)

val snapshot_diff : before:snapshot -> after:snapshot -> snapshot
(** Per-name deltas ([after - before], clamped at zero; counters absent
    from [before] count from zero): a way to measure an interval
    without resetting the global registry out from under other
    readers.  ([kf top] reads rates off scrapes instead, through
    {!Metrics.Window}.) *)

val reset_all : unit -> unit
(** Zero every registered counter (the registry itself is kept). *)

val to_json : unit -> Json.t
(** The {!all} snapshot as one JSON object. *)
