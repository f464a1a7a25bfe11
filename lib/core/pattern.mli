(** The paper's generic computation pattern and its instantiations.

    Equation 1:  [w = alpha * X^T x (v .* (X x y)) + beta * z].

    Table 1 lists the five instantiations found across the studied ML
    algorithms; this module names them, classifies a concrete argument
    combination into one, and records which algorithm uses which — both
    the paper's claimed table and (via {!Trace}) the table regenerated
    from what the algorithm implementations actually execute.

    Equation 1 is one {!Pattern_family} among several (registered under
    the id ["eq1"]); {!descriptor} bridges the closed enum to the
    family-generic descriptors that [Executor], the plan compiler and
    the traces are threaded through. *)

type instantiation =
  | Xt_y  (** [alpha * X^T x y] *)
  | Xt_X_y  (** [X^T x (X x y)] *)
  | Xt_v_X_y  (** [X^T x (v .* (X x y))] *)
  | Xt_X_y_plus_z  (** [X^T x (X x y) + beta * z] *)
  | Full_pattern  (** [alpha * X^T x (v .* (X x y)) + beta * z] *)

val all : instantiation list

val name : instantiation -> string
(** Mathematical rendering, e.g. ["a*X^T(v.(Xy)) + b*z"]. *)

(** Argument shape of a concrete call, for {!classify_shape}: which of
    Equation 1's optional stages are present. *)
type shape = {
  first_multiply : bool;  (** false for plain [X^T x y] *)
  weighted : bool;  (** the element-wise [v .*] stage *)
  additive_tail : bool;  (** the [+ beta * z] stage *)
}

val classify_shape : shape -> instantiation
(** Classify from the shape of the arguments.  Raises
    [Invalid_argument] on [weighted] or [additive_tail] without
    [first_multiply]. *)

val partials : instantiation -> instantiation list
(** The fusable prefixes of an instantiation, largest first: every way a
    plan compiler can cover the head of the chain with one fused call and
    compute the remainder with separate kernels.  The instantiation
    itself is always included; [Xt_y] (fuse only the transpose product,
    with the inner vector materialised separately) is always last.
    Dropping just the [v] weighting is never a prefix. *)

val paper_algorithms : instantiation -> string list
(** The check marks of Table 1 (algorithms among
    ["LR"; "GLM"; "LogReg"; "SVM"; "HITS"]). *)

val descriptor : instantiation -> Pattern_family.descriptor
(** The family-generic descriptor (family ["eq1"]). *)

val of_descriptor : Pattern_family.descriptor -> instantiation option
(** Inverse of {!descriptor}; [None] for other families' descriptors. *)

(** Execution traces: ML algorithms register each pattern instance they
    run, so Table 1 can be regenerated from real executions rather than
    transcribed.  A trace counts descriptors from {e every} registered
    family; the [instantiation]-typed accessors cover Equation 1. *)
module Trace : sig
  type t

  val create : algorithm:string -> t

  val record : t -> instantiation -> unit

  val record_desc : t -> Pattern_family.descriptor -> unit
  (** Family-generic recording (what [Executor]'s graph entry points
      use). *)

  val algorithm : t -> string

  val instantiations : t -> instantiation list
  (** Distinct Equation-1 instantiations observed, in {!all} order. *)

  val count : t -> instantiation -> int

  val desc_count : t -> Pattern_family.descriptor -> int

  val entries : t -> (Pattern_family.descriptor * int) list
  (** Every observed descriptor with its count, ordered by
      {!Pattern_family.all_instantiations} (family registration order;
      Equation 1 first). *)
end
