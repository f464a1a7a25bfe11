(** Plan execution: drive an {!Kf_ml.Session} over the lowered steps.

    Node values live in a per-run cache keyed by node id.  A node is
    computed at most once until some loop in its flush set starts an
    iteration — this is how loop-invariant hoisting is realised.  Nodes
    chosen as fusion-group roots execute as one fused pattern call;
    everything else makes one executor call per operator, as the
    reference interpreter ({!Sysml.Script.eval}) does, so the two paths
    agree to rounding.  Recovery from faults and guard trips is the
    executor's, per call; the plan adds no layer of its own. *)

val execute :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?positional:Sysml.Script.value list ->
  Gpu_sim.Device.t ->
  inputs:(string * Sysml.Script.value) list ->
  steps:Ir.step list ->
  groups:(int, Fuse.group) Hashtbl.t ->
  flush_by_loop:(int, int list) Hashtbl.t ->
  unit ->
  Sysml.Script.run
(** Execute a lowered-and-fused plan.  [groups] maps fusion-group root
    node ids to their groups ({!Fuse.select}'s first component);
    [flush_by_loop] is {!Ir.flush_sets}'s second component.  The result
    has the same shape as {!Sysml.Script.eval}'s, so differential tests
    can compare the two directly.  Raises {!Sysml.Script.Type_error} on
    a value of the wrong kind. *)
