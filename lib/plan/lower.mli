(** Lowering: [Sysml.Script.stmt list] -> shape-annotated operator DAG.

    The compiler specialises the plan to one concrete set of inputs (the
    same pair the interpreter would receive), so every node carries a
    fully resolved type: scalar inputs fold to constants, [ncol]/[nrow]
    fold to constants, and vector lengths / matrix shapes are exact.
    Typing mirrors {!Sysml.Script.eval}'s dynamic rules: a program it
    would reject at run time raises {!Sysml.Script.Type_error} here, at
    plan time, and so does ill-typed code in a branch that would never
    run. *)

exception Not_static of string
(** The program's types depend on run-time values, so it has no static
    plan: a [matrix(0, rows=e)] length that is not a plan-time constant,
    a variable whose type (or vector length) differs across a loop
    iteration or the arms of an [if], or a variable a loop reads before
    its first assignment (bound only from the second iteration on).
    The message names the construct.
    {!Sysml.Script.eval} runs such programs. *)

type result = {
  steps : Ir.step list;
  builder : Ir.builder;  (** for CSE / fold statistics and node listing *)
  loops : int;  (** number of [while] loops, = the next fresh loop id *)
}

val program :
  inputs:(string * Sysml.Script.value) list ->
  positional:Sysml.Script.value list ->
  Sysml.Script.stmt list ->
  result
(** Lower a parsed script against its concrete inputs.  [inputs] are the
    named bindings ([read("name")] / free variables), [positional] the
    [$k] inputs, both exactly as {!Sysml.Script.eval} would receive
    them. *)
