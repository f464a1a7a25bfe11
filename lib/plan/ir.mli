(** The operator DAG the plan compiler works on.

    Nodes are SSA-style: every expression occurrence becomes a node whose
    arguments are other nodes, hash-consed so that structurally identical
    subtrees share one node (that sharing {e is} common-subexpression
    elimination — the builder counts the hits).  Control flow stays
    outside the DAG: statements become {!step}s that reference nodes, and
    the only nodes that observe mutation are [Var_at] nodes — explicit
    "read variable x here" points inserted at loop entries, loop exits
    and if-joins, each carrying the set of loops whose iteration must
    flush it (and, transitively, everything computed from it) from the
    value cache.  A node with an empty flush set is loop-invariant. *)

type ty =
  | Scalar
  | Vector of int
  | Matrix_ref of { rows : int; cols : int; nnz : int; dense : bool }

type binop = Add | Sub | Mul | Div | Lt | Gt | And | Pow

type op =
  | Const of float
  | Input_named of string
  | Input_pos of int
  | Var_at of { var : string; serial : int; flush_on : int list }
      (** read variable [var] from the environment; re-read whenever one
          of the loops in [flush_on] starts an iteration *)
  | Ones  (** all-ones vector (the [sum] reduction's right operand) *)
  | Zero_vec
  | Neg
  | Bin of binop
  | Dot
  | Matmul  (** [X %*% y] *)
  | Matmul_t  (** [t(X) %*% y] with [X] stored untransposed *)
  | Transpose
      (** explicit [t(X)]; the pushdown pass folds every reachable one
          into {!Matmul_t}, after which it is dead *)
  | Sddmm of string
      (** [sddmm(G, H, sr)]: sampled product onto [G]'s sparsity, edge
          weights from the named semiring *)
  | Spmm of string
      (** [spmm(S, H, sr)]: semiring aggregation; the fusion anchor of
          the ["fusedmm"] family *)

type node = {
  id : int;
  mutable op : op;  (** mutable so {!Passes.push_transposes} can rewrite *)
  mutable args : node list;
  ty : ty;
}

type step =
  | Bind of string * node
  | Write of node * string
  | While_ of { loop_id : int; cond : node; body : step list; phis : node list }
  | If_ of { cond : node; then_ : step list; else_ : step list }

val binop_name : binop -> string
val op_name : op -> string
val ty_name : ty -> string

(** {1 Builder} *)

type builder = {
  mutable nodes : node list;  (** reverse creation order *)
  consed : (op * int list * ty, node) Hashtbl.t;
  mutable next_id : int;
  mutable cse_hits : int;
  mutable const_folds : int;
}

val create_builder : unit -> builder

val fresh : builder -> op -> node list -> ty -> node
(** Allocate a node unconditionally, bypassing hash-consing. *)

val mk : builder -> op -> node list -> ty -> node
(** Hash-consing constructor: pure ops that already exist with the same
    arguments and type return the existing node (counted as a CSE hit
    unless the op is a constant or input reference); [Var_at] nodes are
    always fresh — their serial makes each read point unique. *)

val all_nodes : builder -> node list
(** Every node ever built, in creation order. *)

(** {1 Graph queries} *)

val iter_step_roots : (node -> unit) -> step -> unit
(** Apply a function to every node a step roots directly (bind/write
    values and loop/branch conditions), recursing through nested
    steps. *)

val reachable : step list -> node list
(** Nodes reachable from the steps, arguments before consumers, in a
    deterministic order. *)

val use_counts : step list -> (int, int) Hashtbl.t
(** Total reference count per node id: one per argument position of a
    reachable consumer plus one per step that roots it.  The fusion
    enumerator treats [uses = 1] as "exclusively consumed", the
    materialisation-point condition of Boehm et al. 2018. *)

val sole_parents : step list -> (int, int) Hashtbl.t * (int, node) Hashtbl.t
(** [(uses, parent)] where [parent] maps each exclusively-consumed
    node's id to its single reachable consumer (step roots count as
    consumers that block climbing, so they never appear as parents). *)

val flush_sets : step list -> (int, int list) Hashtbl.t * (int, int list) Hashtbl.t
(** [(flush_of, by_loop)]: per node id, the loop ids whose iteration
    must flush its cached value (the union over its [Var_at] ancestry);
    and the inverse index, per loop id the node ids it flushes — the
    form the executor consumes. *)
