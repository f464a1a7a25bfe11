(** Binomial logistic regression via the trust-region Newton method of
    Lin, Weng & Keerthi (the citation the paper gives for LogReg).

    The gradient is [X^T (sigma - t01)] (an [X^T y] product) and every
    Hessian-vector product inside the trust-region CG is
    [X^T (d .* (X s)) + lambda * s] — the *full* pattern of Equation 1,
    which is why LogReg is the one algorithm ticking the last row of
    Table 1. *)

type result = {
  weights : Matrix.Vec.t;
  newton_iterations : int;
  cg_iterations : int;
  loss : float;  (** final regularised negative log-likelihood *)
  accuracy : float;  (** training accuracy *)
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
    [newton_iterations = 15], [cg_iterations = 25]. *)

val predict_proba : Matrix.Vec.t -> Fusion.Executor.input -> Matrix.Vec.t
(** [predict_proba w input] — the positive-class probability
    [sigmoid((X x w)_i)] for every input row. *)

module Algo : Algorithm.S
(** Registry adapter ([name = "logreg"]); scores are probabilities. *)
