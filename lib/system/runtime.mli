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
