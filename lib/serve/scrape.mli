(** Minimal HTTP/1.1 scrape endpoint for the metrics registry.

    {!start} spawns one listener thread on a loopback TCP socket that
    answers [GET /metrics] with whatever the [render] callback produces
    (the OpenMetrics exposition of a fresh {!Kf_obs.Metrics.snapshot}),
    [GET /healthz] with [ok], and anything else with 404.  Connections
    are handled inline — scrapes are rare and tiny — and [render] must
    not take service locks, so a scrape can never stall the scheduler.

    {!fetch} is the matching one-shot client used by [kf top], tests
    and smoke checks. *)

type t

val port_var : int Kf_obs.Env.t
(** [KF_METRICS_PORT]: the port [kf serve] scrapes on and [kf top]
    polls when [--metrics-port] / [--port] is absent. *)

val start :
  ?addr:string -> port:int -> render:(unit -> string) -> unit -> t
(** [start ~port ~render ()] binds [addr] (default [127.0.0.1]) on
    [port] ([0] picks an ephemeral port — read it back with {!port})
    and starts answering.  Raises [Unix.Unix_error] when the bind
    fails (port in use, privileged port). *)

val port : t -> int

val stop : t -> unit
(** Close the listening socket and join the listener thread.  In-flight
    responses finish; later connections are refused. *)

val fetch :
  ?addr:string -> port:int -> path:string -> unit -> (string, string) result
(** One-shot HTTP GET; [Ok body] on a 200 response, [Error reason]
    otherwise. *)
