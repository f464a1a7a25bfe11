open Gpu_sim

(** Simulated cuBLAS.

    Level-2 [gemv]/[gemv_t] on row-major dense matrices plus the Level-1
    vector routines Listing 1 needs (axpy, dot, nrm2, scal, copy).

    [gemv_t] models the documented transpose path: the matrix is staged
    through shared memory in 32x32 tiles so global loads stay coalesced,
    but shared-memory bank conflicts grow with the number of warps per
    block (Section 3.2) and per-block partial sums are committed with
    global atomics.  That is why the dense baseline loses to the fused
    kernel by ~4x while reading the same number of DRAM bytes per pass. *)

val gemv : Device.t -> Matrix.Dense.t -> Matrix.Vec.t -> Matrix.Vec.t * Sim.report list
(** [gemv d x y = X x y]. *)

val gemv_t : Device.t -> Matrix.Dense.t -> Matrix.Vec.t -> Matrix.Vec.t * Sim.report list
(** [gemv_t d x p = X^T x p]. *)

(** {1 Level 1} *)

val axpy :
  ?into:Matrix.Vec.t ->
  Device.t ->
  float ->
  Matrix.Vec.t ->
  Matrix.Vec.t ->
  Matrix.Vec.t * Sim.report list
(** [axpy d a x y] returns [a*x + y]: a fresh vector (non-destructive,
    unlike the BLAS), or [into] when given, which may be [x] or [y]
    itself since the op is element-wise ([axpy ~into:y d a x y] is the
    BLAS's in-place [daxpy]).  The simulated cost is the same either
    way.  Raises [Invalid_argument] unless [x], [y] and [into] have one
    length. *)

val dot : Device.t -> Matrix.Vec.t -> Matrix.Vec.t -> float * Sim.report list

val nrm2 : Device.t -> Matrix.Vec.t -> float * Sim.report list

val scal :
  ?into:Matrix.Vec.t ->
  Device.t ->
  float ->
  Matrix.Vec.t ->
  Matrix.Vec.t * Sim.report list
(** [scal d a x] returns [a*x]: a fresh vector, or [into] when given
    (which may be [x]), as for {!axpy}. *)

val copy : Device.t -> Matrix.Vec.t -> Matrix.Vec.t * Sim.report list

val mul_elementwise :
  Device.t -> Matrix.Vec.t -> Matrix.Vec.t -> Matrix.Vec.t * Sim.report list
(** Hadamard product [v .* p].  cuBLAS has no such routine; library-based
    baselines run it as a custom streaming kernel (one more launch — part
    of the overhead the fused kernel eliminates). *)
