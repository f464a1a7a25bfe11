(** Host execution counters — the CPU analogue of [Gpu.Stats].

    Where the simulated engines report the hardware events nvvp would
    show (global load transactions, atomics, bank conflicts), the host
    engine runs for real, so its observable quantities are the ones a
    CPU profiler reasons with: per-domain busy and idle nanoseconds
    (load imbalance), rows and non-zeros processed per domain
    (partition balance), accumulator allocations and bytes (the
    [Dense_acc] working set), tree-merge passes and merges (the
    inter-block aggregation analogue) and pool jobs dispatched.

    A [t] is installed as the ambient {e sink} by whoever wants a
    measurement — [kf --profile]/[--trace], a bench pass, a test — for
    as long as it measures; [Par.Pool], [Fusion.Host_fused] and the
    parallel BLAS record straight into it.  The library never installs
    one.  With no sink installed every recording entry point is a
    single atomic load — the host hot paths stay unperturbed when
    profiling is off.

    Writers are addressed per worker: each pool worker publishes its
    worker id in {!worker_slot} (domain-local), and writes only its own
    slot, so recording needs no locks. *)

type t = {
  domains : int;  (** slots below; worker ids are clamped into range *)
  busy_ns : int array;  (** per-worker time inside pool jobs *)
  idle_ns : int array;
      (** per-worker time waiting inside a job for the slowest worker
          (job wall time minus own busy time, summed over jobs) *)
  rows : int array;  (** matrix rows processed per worker *)
  nnz : int array;
      (** non-zeros (dense: elements) processed per worker *)
  mutable jobs : int;  (** pool jobs (broadcast/join handshakes) *)
  mutable acc_allocations : int;
      (** per-domain accumulator arrays allocated *)
  mutable acc_bytes : int;
  mutable merge_passes : int;  (** tree-merge rounds (log depth) *)
  mutable merge_ops : int;  (** pairwise merges across all rounds *)
  mutable merge_bytes : int;
      (** bytes moved by accumulator tree merges ([Dense_acc]) *)
  mutable layout_builds : int;
      (** always 0: no host kernel builds a layout any more; the field
          stays because the repository benchmark reads it *)
}

val create : domains:int -> t

(** {1 Ambient sink} *)

val worker_slot : int Domain.DLS.key
(** The recording worker's id; pool workers set it once at spawn,
    the coordinating domain defaults to slot 0. *)

val with_sink : t -> (unit -> 'a) -> 'a
(** Install [t] as the ambient sink for the duration of the callback
    (restoring the previous sink after, even on exceptions).  The sink
    is process-wide: host work on every domain records into it, and
    sinks do not nest — install one per measurement.  Counts are exact
    while one domain at a time issues host work. *)

val current : unit -> t option

val profiling : unit -> bool
(** [current () <> None] — the one-flag check instrumented hot paths
    gate on. *)

(** {1 Recording} (all no-ops when no sink is installed) *)

val add_work : rows:int -> nnz:int -> unit
(** Credit rows/nnz to the calling worker's slot. *)

val record_job : wall_ns:int -> busy_ns:int array -> unit
(** One pool job: per-worker busy time plus derived idle time
    ([wall_ns - busy_ns.(wid)], clamped at 0). *)

val record_alloc : bytes:int -> unit

val record_merge_pass : unit -> unit

val record_merge_op : unit -> unit

val record_merge_bytes : bytes:int -> unit
(** Bytes read+written by accumulator merges (coordinator only). *)

(** {1 Derived views} *)

val total_rows : t -> int

val total_nnz : t -> int

val busy_total_ns : t -> int

val load_imbalance : t -> float
(** Max over workers of busy time divided by the mean busy time —
    [1.0] is perfect balance; meaningless (returns [1.0]) when nothing
    ran.  Only workers that did any work count toward the mean. *)

val emit_trace_counters : unit -> unit
(** Sample the installed sink's running per-domain totals (busy and
    idle ns, rows, nnz) as four {!Trace.counter_sample} events
    ([host.busy_ns], [host.idle_ns], [host.rows], [host.nnz]), keyed
    ["d0"], ["d1"], … — no-op with no sink installed or when
    {!Trace.emitting} is false. *)

val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
