(** Strict environment-variable parsing for the CLI entry points.

    The libraries themselves stay lenient — [Par.Pool] falls back to the
    recommended domain count on a malformed [KF_DOMAINS],
    [Kf_dist.Cluster] clamps [KF_WORKERS] — because a library must not
    exit the process.  The CLI is stricter: a value the user typed that
    cannot mean anything is reported once, in one uniform
    [kf: NAME must be ...] message, and the process exits with status 2
    (the same contract as every other CLI usage error).

    Used for [KF_DOMAINS], [KF_WORKERS], [KF_METRICS_PORT],
    [KF_TRACE_SAMPLE], [KF_ENGINE] and [KF_HOST_VARIANT]. *)

val int : ?min:int -> ?max:int -> string -> int option
(** [int ~min ~max name] is [None] when [name] is unset, [Some v] when
    it holds an integer within [[min, max]] (each bound optional), and
    exits 2 with a uniform [kf: NAME must be ...] message on stderr
    otherwise. *)

val float : ?min:float -> ?max:float -> string -> float option
(** Same contract for floating-point variables (rates, thresholds). *)

val int_result :
  ?min:int -> ?max:int -> string -> (int option, string) result
(** Non-exiting form of {!int}: [Error msg] carries the exact message
    {!int} would print before exiting — what the tests assert against. *)

val float_result :
  ?min:float -> ?max:float -> string -> (float option, string) result
(** Non-exiting form of {!float}. *)

val engine : string -> Fusion.Executor.engine option
(** Same contract for engine-valued variables ([KF_ENGINE]): parsed with
    {!Fusion.Executor.engine_of_string}, so the accepted spellings are
    exactly the CLI's [--engine] values. *)

val engine_result :
  string -> (Fusion.Executor.engine option, string) result
(** Non-exiting form of {!engine}. *)

val host_variant : string -> Fusion.Host_fused.variant option
(** Same contract for host-variant variables ([KF_HOST_VARIANT]): the
    accepted names are exactly {!Fusion.Host_fused.variant_name}'s, and
    the message lists them. *)

val host_variant_result :
  string -> (Fusion.Host_fused.variant option, string) result
(** Non-exiting form of {!host_variant}. *)
