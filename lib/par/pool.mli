(** A reusable pool of OCaml 5 domains for data-parallel host execution.

    The pool is the CPU analogue of the paper's persistent grid: domains
    are spawned once and reused across kernels, so per-kernel overhead is
    a broadcast + join on a condition variable rather than domain spawn
    cost.  With [size = 1] every entry point degrades to plain sequential
    execution in the calling domain (no domains are spawned, no locks are
    taken), which keeps single-core machines and CI honest.

    Jobs submitted to one pool must not themselves submit jobs to the
    same pool (no nested parallelism); the pool is otherwise safe to use
    from the single coordinating domain that owns it. *)

type t

val default_size : unit -> int
(** Pool size used by {!default}: the [KF_DOMAINS] environment variable
    (a positive integer) when set, otherwise
    [Domain.recommended_domain_count ()], clamped to [\[1, 128\]].
    Raises {!Kf_obs.Env.Malformed} on a malformed [KF_DOMAINS]. *)

val create : ?size:int -> unit -> t
(** [create ~size ()] spawns [size - 1] worker domains (the caller acts
    as worker 0).  [size] defaults to {!default_size}.  Raises
    [Invalid_argument] if [size < 1]. *)

val size : t -> int

val default : unit -> t
(** A process-wide shared pool, created lazily with {!default_size}
    workers on first use.  This is what the executor and parallel BLAS
    use when no explicit pool is given. *)

val shutdown : t -> unit
(** Join and discard the worker domains.  The pool must not be used
    afterwards.  Shutting down the {!default} pool is not allowed
    (raises [Invalid_argument]); it lives for the process. *)

val run_workers : t -> (int -> unit) -> unit
(** [run_workers t f] runs [f wid] once on every worker
    [wid = 0 .. size-1] concurrently and waits for all of them.  Worker 0
    is the calling domain.  If any worker raises, one of the exceptions
    is re-raised in the caller after all workers finish. *)

val map_workers : t -> (int -> 'a) -> 'a array
(** [map_workers t f] is {!run_workers} collecting each worker's result:
    returns [[| f 0; ...; f (size-1) |]] (computed concurrently). *)

val parallel_for : t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for t ~lo ~hi body] calls [body start stop] over disjoint
    half-open chunks covering [\[lo, hi)], dynamically scheduled over the
    workers (an atomic counter stands in for the GPU's block scheduler).
    [chunk] bounds the chunk size; the default aims at 4 chunks per
    worker.  Sequential when [size = 1] or the range is small. *)

val reduce : t -> merge:(dst:'a -> src:'a -> unit) -> 'a array -> 'a
(** [reduce t ~merge parts] combines per-worker partial results with a
    binary tree: at every round, surviving even-indexed parts absorb
    their odd neighbour via [merge ~dst ~src] (in parallel across pairs),
    halving the count until only [parts.(0)] remains, which is returned.
    This is the host's stand-in for the paper's inter-block aggregation
    sweep.  Raises [Invalid_argument] on an empty array. *)
