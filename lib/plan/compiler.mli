(** The fusion plan compiler: lower a DML program to the operator DAG
    ({!Ir}), run the rewrite passes ({!Passes}), pick fusion groups by
    estimated cost ({!Cost}, {!Fuse}), and execute the resulting plan
    against any {!Fusion.Executor.engine} ({!Interp}).

    The compiled plan is specialised to one concrete set of inputs —
    shapes, sparsity and scalar inputs are baked in — which is what lets
    every rewrite be decided ahead of execution.  It is the one place a
    DML program's operator trees are fused.  The executed results agree
    to rounding, on every engine, with {!Sysml.Script.eval}, the
    reference interpreter that makes one executor call per operator;
    what changes is the operator schedule (loop-invariant work runs
    once, and each fusion group's call boundaries are chosen by cost). *)

type t

val compile :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?overhead_ms:float ->
  ?positional:Sysml.Script.value list ->
  Gpu_sim.Device.t ->
  inputs:(string * Sysml.Script.value) list ->
  Sysml.Script.stmt list ->
  t
(** Lower, rewrite and select fusion groups.  [engine] (default
    [Fused]) selects both the execution backend and the cost model that
    prices candidates; [pool] sizes the host cost model's domain count
    and is the pool {!execute} runs on; [overhead_ms] (default 0.05, the
    {!Sysml.Runtime.systemml} bookkeeping default) is the per-operator
    charge that breaks cost ties toward larger fusion groups.  The plan
    depends on these arguments only (host candidates are priced with
    {!Cost.default_host}).  Raises {!Sysml.Script.Type_error} on a
    program the reference interpreter would reject, also when the
    ill-typed code sits in a branch that would not run, and
    {!Lower.Not_static} on a program whose types depend on run-time
    values, which only the reference interpreter runs. *)

val execute : t -> Sysml.Script.run
(** Run the plan.  Each call creates a fresh session; the run record has
    the same meaning as {!Sysml.Script.eval}'s. *)

val explain : t -> string
(** Human-readable report: node/rewrite counts, the hoisted
    loop-invariant nodes per loop, and every fusion group with its
    candidate costs (chosen candidate starred). *)

val to_json : t -> Kf_obs.Json.t
(** The plan IR ([schema "kf-plan-ir/1"]): nodes, step structure, the
    rewrite report and the fusion groups with their candidates. *)

(** {1 Report accessors} (for tests and tooling) *)

val cse_hits : t -> int

val const_folds : t -> int

val pushdowns : t -> int
(** Transposes folded into [Matmul_t]. *)

val hoists : t -> Passes.hoist list

val hoisted : t -> (int * int) list
(** Per loop id, how many loop-invariant nodes were hoisted. *)

val groups : t -> Fuse.group list

val chosen_descriptors : t -> Fusion.Pattern_family.descriptor list
(** One family-qualified descriptor per fusion group, in step order —
    covers every pattern family. *)

val chosen_instantiations : t -> Fusion.Pattern.instantiation list
(** The Equation-1 groups' instantiations, in step order.  Groups from
    other families are omitted; use {!chosen_descriptors} for the
    family-generic view. *)
