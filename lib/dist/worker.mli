(** Worker-process side of the sharded execution tier.

    Workers are not a separate binary: the coordinator re-executes its
    own executable ([Sys.executable_name]) with [KF_DIST_WORKER] set and
    a socketpair end on stdin/stdout.  Every entry point that may use
    the [Dist] engine calls {!maybe_run} first, so a worker process
    turns into a request loop before any CLI/test harness code runs.
    (Re-exec rather than [Unix.fork] keeps spawning safe after OCaml 5
    domains have started — tests mix [Host] and [Dist] engines in one
    process.)

    A worker caches the shards it has been sent (keyed by the
    coordinator's matrix id), computes ops with the sequential reference
    BLAS — determinism within a shard is what makes crash-respawn
    recovery bit-exact — and records a per-op compute-time histogram
    the coordinator can pull with [Stats_req] and merge into its
    registry. *)

val id_var : int Kf_obs.Env.t
(** [KF_DIST_WORKER]: the worker id the coordinator passes to each
    process it spawns. *)

val maybe_run : unit -> unit
(** If [KF_DIST_WORKER] is set: move the inherited socket off
    stdin/stdout (stray prints then go to stderr instead of corrupting
    the frame stream), serve requests until [Shutdown] or peer EOF, and
    [exit 0] — this call never returns in a worker process.  A no-op
    otherwise. *)

val serve : Unix.file_descr -> unit
(** The request loop itself on an arbitrary socket, exposed for
    in-process protocol tests.  Returns on [Shutdown] or raises
    [Wire.Closed] on peer EOF. *)
