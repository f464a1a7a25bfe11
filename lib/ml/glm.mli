(** Generalized linear models fitted by iteratively reweighted least
    squares (McCullagh — the paper's GLM citation).

    Each IRLS step solves the weighted normal equations
    [(X^T D X) delta = X^T u] with an inner CG whose matrix-vector
    product is [X^T (d .* (X p))] — the [X^T(v.(Xy))] instantiation of
    Table 1 — and whose right-hand side is an [X^T y] product.  The
    family determines the mean function, IRLS weights and deviance. *)

(** An exponential-family response with its link.  The [weight] and
    [residual] functions are expressed for the *linear predictor* Newton
    step: gradient contribution per row is [residual ~y ~mu], curvature
    is [weight mu]. *)
type family = {
  family_name : string;
  mean : float -> float;  (** inverse link: eta -> mu *)
  weight : float -> float;  (** IRLS weight from mu *)
  residual : y:float -> mu:float -> float;
  deviance_term : y:float -> mu:float -> float;
  valid_target : float -> bool;
}

val poisson : family
(** Log link; targets are non-negative counts. *)

val binomial : family
(** Logit link; targets in [\[0, 1\]] (probabilities or 0/1 outcomes). *)

val gamma : family
(** Log link (the common parameterisation); targets strictly positive. *)

type result = {
  weights : Matrix.Vec.t;
  newton_iterations : int;
  cg_iterations : int;  (** total inner iterations *)
  deviance : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;  (** one entry per Newton step *)
}

val fit :
  ?engine:Fusion.Executor.engine ->
  ?family:family ->
  ?newton_iterations:int ->
  ?cg_iterations:int ->
  ?tolerance:float ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  ?resume:string ->
  Gpu_sim.Device.t ->
  Fusion.Executor.input ->
  targets:Matrix.Vec.t ->
  result
(** Defaults: [family = poisson], [newton_iterations = 10],
    [cg_iterations = 20], [tolerance = 1e-6].  Raises [Invalid_argument]
    when a target is invalid for the family. *)

val families : family list
(** All built-in families ({!poisson}, {!binomial}, {!gamma}). *)

val family_of_name : string -> family option

val predict : ?family:family -> Matrix.Vec.t -> Fusion.Executor.input -> Matrix.Vec.t
(** [predict ~family w input] is the fitted mean response
    [mu_i = g^{-1}((X x w)_i)] through the family's inverse link
    (default {!poisson}). *)

module Algo : Algorithm.S
(** Registry adapter ([name = "glm"]); stores the family name in the
    model's [model.family] field so serving applies the right link. *)
