(** The inner conjugate-gradient solve of the Newton methods ({!Glm}
    and {!Svm}): [H s = r0] for a Hessian [H] the caller applies.

    The solve keeps four vectors for its whole length ([s], [p], the
    Hessian-vector product, and the residual, which is [r0] itself) and
    overwrites them in place on every iteration, through the [?into]
    arguments of {!Session.axpy}, {!Session.scal} and
    {!Session.pattern}: what it allocates does not grow with the
    iteration count. *)

val solve :
  Session.t ->
  r0:Matrix.Vec.t ->
  hv:(p:Matrix.Vec.t -> into:Matrix.Vec.t -> unit) ->
  iterations:int ->
  tolerance:float ->
  Matrix.Vec.t * int
(** [solve session ~r0 ~hv ~iterations ~tolerance] runs at most
    [iterations] CG steps from [s = 0], stopping once
    [||r||^2 <= tolerance^2 * ||r0||^2], or at once when the curvature
    [p . H p] is not positive.  [hv ~p ~into] must write [H p] into
    [into] (it is never [p]).  [r0] is overwritten with the residual.
    Returns the solution and the steps taken ([iterations] when the
    curvature test stopped it). *)
