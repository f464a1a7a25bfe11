(** Linear SVM trained in the primal (Chapelle), squared hinge loss.

    Newton-CG on the primal objective: per Newton step the Hessian is
    restricted to the current support set (rows violating the margin), and
    each CG matrix-vector product on that submatrix is
    [X_sv^T (X_sv p) + lambda p] — the [X^T(Xy) + beta*z] instantiation;
    the gradient is an [X^T y] product.  This matches Table 1's SVM
    column (no Hadamard stage: the support selection happens by row
    subsetting, not by element-wise masking). *)

type result = {
  weights : Matrix.Vec.t;
  newton_iterations : int;
  cg_iterations : int;
  objective : float;
  support_vectors : int;  (** active rows at the last Newton step *)
  accuracy : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;  (** one entry per Newton step *)
}

val fit :
  ?engine:Fusion.Executor.engine ->
  ?lambda:float ->
  ?newton_iterations:int ->
  ?cg_iterations:int ->
  ?tolerance:float ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  ?resume:string ->
  Gpu_sim.Device.t ->
  Fusion.Executor.input ->
  labels:Matrix.Vec.t ->
  result
(** [labels] in [{-1, +1}].  Defaults: [lambda = 1.0],
    [newton_iterations = 10], [cg_iterations = 20]. *)

val predict : Matrix.Vec.t -> Fusion.Executor.input -> Matrix.Vec.t
(** [predict w input = X x w] — the signed margin per input row
    (positive means the +1 class). *)

module Algo : Algorithm.S
(** Registry adapter ([name = "svm"]); scores are margins. *)
