open Gpu_sim

(** End-to-end executions of Linear Regression CG — the two regimes of
    Section 4.4.

    {!standalone} is Table 5: a hand-built CUDA driver that ships the
    data once over PCIe and then runs every iteration on the device,
    either through the fused kernels or through cuBLAS/cuSPARSE.

    {!systemml} is Table 6: the same computation inside a JVM-based ML
    system, where the memory manager, JNI copies, and format conversions
    sit between the script and the device — the overheads the paper
    blames for the gap between an 11.2x kernel speedup and a 1.2x
    end-to-end speedup. *)

type standalone = {
  iterations : int;
  transfer_ms : float;  (** one-time host-to-device shipment *)
  fused_ms : float;  (** device time, fused engine *)
  library_ms : float;  (** device time, cuBLAS/cuSPARSE engine *)
  fused_total_ms : float;
  library_total_ms : float;
  speedup : float;  (** library_total / fused_total *)
  amortized_total_ms : float option;
      (** sparse only: a stronger baseline that materialises X^T once and
          reuses it — brackets the paper's measurement from below, the
          strict per-call composition bracketing it from above *)
  amortized_speedup : float option;
}

val standalone :
  ?max_iterations:int ->
  ?measure_iterations:int ->
  Device.t ->
  Kf_ml.Dataset.regression ->
  standalone
(** [measure_iterations] bounds how many CG iterations are actually
    simulated; device time is extrapolated linearly to [max_iterations]
    (every iteration launches identical kernels on identical data). *)

(** {1 Planned script execution}

    The fusion plan compiler (library [kf_plan]) sits above this library
    in the dependency graph, so it cannot be called directly from here;
    it registers a {!planner} at start-up ([Kf_plan.Compiler.install])
    and {!eval_script} routes DML programs through it on demand. *)

type plan_mode =
  | Plan_off  (** eval-time recognition ({!Script.eval}) *)
  | Plan_on  (** compile to a plan, then execute it *)
  | Plan_explain  (** as [Plan_on], also produce the explain report *)

type planner = {
  plan_run :
    ?engine:Fusion.Executor.engine ->
    ?pool:Par.Pool.t ->
    ?positional:Script.value list ->
    Device.t ->
    inputs:(string * Script.value) list ->
    Script.stmt list ->
    Script.run * string;
      (** compile and execute a program; also returns the explain
          report *)
  plan_dump_ir :
    ?positional:Script.value list ->
    Device.t ->
    inputs:(string * Script.value) list ->
    Script.stmt list ->
    Kf_obs.Json.t;  (** compile only; the plan IR as JSON *)
}

val register_planner : planner -> unit

val planner : unit -> planner option

val eval_script :
  ?mode:plan_mode ->
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?positional:Script.value list ->
  Device.t ->
  inputs:(string * Script.value) list ->
  Script.stmt list ->
  Script.run * string option
(** Run a DML program under [mode] (default: {!Plan_off}).
    {!Plan_off} delegates to {!Script.eval}; the planned modes require a
    registered planner (raises [Invalid_argument] otherwise).  The
    second component is the explain report under {!Plan_explain}. *)

type systemml = {
  sm_iterations : int;
  cpu_total_ms : float;  (** SystemML CPU backend *)
  gpu_total_ms : float;  (** GPU-enabled SystemML (fused kernels) *)
  total_speedup : float;
  kernel_ms_cpu : float;  (** pattern share on the CPU backend *)
  kernel_ms_gpu : float;  (** same work on the fused kernels *)
  kernel_speedup : float;
  overhead_ms : float;  (** JNI + conversions + memory manager + transfers *)
  mm : Memmgr.stats;
}

val systemml :
  ?max_iterations:int ->
  ?measure_iterations:int ->
  ?bookkeeping_ms_per_op:float ->
  Device.t ->
  Device.cpu ->
  Kf_ml.Dataset.regression ->
  systemml
(** [bookkeeping_ms_per_op] (default 0.05) is the interpreter/manager
    cost charged per GPU operator issued, matching the prototype
    integration's measured overheads. *)
