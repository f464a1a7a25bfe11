(** Multinomial logistic regression via one-vs-rest reduction.

    The paper's LogReg row covers "binomial/multinomial logistic
    regression (via trust region method)"; the multinomial case reduces
    to [K] binomial trust-region fits, one per class, each of which runs
    the full fused pattern for its Hessian-vector products.  Prediction
    takes the class with the largest margin. *)

type result = {
  class_weights : Matrix.Vec.t array;  (** one weight vector per class *)
  classes : int;
  accuracy : float;  (** training accuracy of the argmax predictor *)
  gpu_ms : float;  (** summed over all per-class fits *)
  trace : Fusion.Pattern.Trace.t;  (** merged across classes *)
  timeline : Session.iteration list;
      (** per-class timelines concatenated in class order (indices restart
          at 0 at each class boundary) *)
}

val fit :
  ?engine:Fusion.Executor.engine ->
  ?lambda:float ->
  ?newton_iterations:int ->
  ?cg_iterations:int ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  ?resume:string ->
  Gpu_sim.Device.t ->
  Fusion.Executor.input ->
  labels:int array ->
  classes:int ->
  result
(** [labels] are class indices in [\[0, classes)].  Raises
    [Invalid_argument] on out-of-range labels or [classes < 2]. *)

val predict : result -> Fusion.Executor.input -> int array
(** Argmax over class margins (computed with the library [X x y]). *)

module Algo : Algorithm.S
(** Registry adapter ([name = "multinomial"]); scores are the predicted
    class indices as floats. *)
