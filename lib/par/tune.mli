(** Host cache/tiling parameters for the blocked multicore kernels —
    the CPU-side analogue of the GPU tuner's hardware model.

    The blocked kernels (see [Fusion.Host_fused] and the owner-computes
    parallel BLAS) tile their work so each domain's active working set
    — its owned slice of the output accumulator plus the streamed
    matrix block — fits the L2 cache.  Every parameter derives from the
    per-core L2 size: a best-effort sysfs probe, which [KF_HOST_L2_BYTES]
    overrides. *)

val l2_bytes : unit -> int
(** Assumed per-core L2 size in bytes: [KF_HOST_L2_BYTES] when set,
    else the sysfs cache topology, else 1 MiB (with a one-line warning
    on stderr — a silent fallback would mis-tile machines whose cache
    topology sysfs cannot describe).  Decided at the first call, which
    raises {!Kf_obs.Env.Malformed} on a malformed [KF_HOST_L2_BYTES]. *)

val l2_source : unit -> string
(** Which of the three sources produced {!l2_bytes}: ["env"], ["sysfs"]
    or ["fallback"].  Benchmark metadata records it ([BENCH_host.json])
    so results tiled against a guessed cache size are distinguishable. *)

val tile_cols : unit -> int
(** Column-tile width for owner-computes scatters: sized so one tile's
    slice of [w] uses at most a quarter of L2 (clamped to
    [64, 2^20]). *)

val tile_rows : unit -> int
(** Row-block height for the streaming passes: an L2-derived default
    (clamped to [256, 2^16]). *)

val prefer_owner_computes : domains:int -> cols:int -> bool
(** Should the blocked owner-computes kernel replace per-domain dense
    accumulators plus tree merge?  True once [8 * cols * domains]
    exceeds [domains * l2_bytes / 2] — i.e. when the accumulate-and-merge
    traffic would dominate — and never with a single domain (nothing to
    merge). *)
