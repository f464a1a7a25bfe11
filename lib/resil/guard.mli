(** Numerical health guards.

    A guard scans an operation's output vector for NaN/Inf and raises
    {!Unhealthy} so the caller's retry-with-fallback chain can re-run
    the work instead of letting poison propagate silently through a
    solver. Scans are O(output length) — for the fused pattern that is
    O(cols) against O(nnz) compute, which is why they are cheap enough
    to leave on by default.

    Guards are enabled unless [KF_GUARDS] is off or {!with_enabled}
    says otherwise.  [KF_GUARDS] is read at the first check and
    latched; a malformed value raises {!Kf_obs.Env.Malformed} there. *)

exception Unhealthy of { point : string; index : int; value : float }
(** [value] is the first non-finite element found, at [index]. *)

val enabled : unit -> bool

val reload : unit -> unit
(** Read [KF_GUARDS] again now; raises {!Kf_obs.Env.Malformed},
    changing nothing, on a malformed value. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run [f] with the guard flag forced over [KF_GUARDS], restoring it
    after. *)

val check_vec : point:string -> float array -> unit
(** Raise {!Unhealthy} on the first NaN/Inf in [v]; no-op when guards
    are disabled. *)

val healthy : float array -> bool
(** Pure scan, never raises, ignores the enabled flag. *)
