(** Kernel execution context and reports.

    A simulated kernel is an ordinary OCaml function that computes the real
    result while recording hardware events through a [ctx].  [run] builds
    the context (validating the launch against the occupancy calculator),
    executes the body, and prices the counters with {!Cost_model}.

    The accounting helpers below are the vocabulary the kernels in
    [gpulibs] and [fusion] are written in; each maps to one access pattern
    of the CUDA code in the paper. *)

type ctx = {
  device : Device.t;
  launch : Launch.t;
  occupancy : Occupancy.result;
  stats : Stats.t;
}

type report = {
  kernel : string;
  launch : Launch.t;
  occupancy : Occupancy.result;
  stats : Stats.t;
  time : Cost_model.breakdown;
}

val run : Device.t -> Launch.t -> name:string -> (ctx -> 'a) -> 'a * report
(** Validate the launch, execute the kernel body, and price it.  Raises
    [Invalid_argument] if the configuration cannot launch (too much shared
    memory, oversized block, ...). *)

(** {1 Accounting helpers} *)

val load_segment : ctx -> bytes_per_elt:int -> start:int -> count:int -> unit
(** Coalesced global load of consecutive elements (CSR values / column
    indices strips, dense row slices). *)

val store_segment : ctx -> bytes_per_elt:int -> start:int -> count:int -> unit

val load_gather_sorted :
  ctx -> bytes_per_elt:int -> indices:int array -> lo:int -> hi:int -> unit
(** Scattered global load through actual indices, sorted within the run
    as CSR column indices are; linear-time. *)

val tex_gather :
  ?l2_hit:float ->
  ctx -> vector_bytes:int -> indices:int array -> lo:int -> hi:int -> unit
(** Gather into a vector bound to the read-only/texture path (the [y]
    accesses of the sparse kernels).  Indices must be sorted within the
    run, as CSR column indices are.  Texture misses fall through to L2
    ([l2_hit], default 0) and fetch 32-byte sectors on a DRAM miss. *)

val gathered_lines_cached :
  ctx -> bytes_per_elt:int -> indices:int array -> lo:int -> hi:int ->
  hit_fraction:float -> unit
(** Sorted-gather accounting with a cache-hit fraction (temporal-locality
    second pass of the fused kernel). *)

val global_atomic_add :
  ?l2_hit:float -> ctx -> ops:int -> conflict_degree:float -> unit
(** [ops] atomic additions whose expected number of *concurrent* writers
    per address is [conflict_degree] (1.0 = uncontended).  [l2_hit]
    (default 0) is the fraction of the read-modify-writes absorbed by L2
    rather than DRAM — 1.0 when the target vector is cache-resident. *)

val shared_atomic_add : ctx -> ops:int -> unit

val shared_access : ctx -> warp_requests:int -> conflict_ways:int -> unit
(** [warp_requests] shared-memory warp accesses, each serialised into
    [conflict_ways] passes (1 = conflict-free). *)

val shuffle_reduce : ctx -> width:int -> unit
(** One register tree-reduction across [width] lanes: [log2 width]
    shuffle+add steps (the Kepler [__shfl_down] pattern). *)

val flops : ctx -> int -> unit

val barrier : ctx -> unit
(** One [__syncthreads] executed by one block; the cost model amortises
    barrier latency over concurrently resident blocks. *)

val local_spill : ctx -> transactions:int -> unit
(** Local-memory traffic from indexed register access (the case the dense
    code generator eliminates). *)

(** {1 Composition} *)

val sequence : report list -> Cost_model.breakdown * Stats.t
(** Total time and merged counters of consecutive kernel launches. *)

val total_ms : report list -> float

val pp_report : Format.formatter -> report -> unit
