(** A miniature declarative-ML language in the style of SystemML's DML —
    the language Listing 1 of the paper is written in — and its
    reference interpreter.

    {!eval} runs a program one executor call per operator, in source
    order: [t(V) %*% (V %*% p) + eps * p] is an [X y] call, an [X^T y]
    call, a scaling and an [axpy].  It never collapses a tree into a
    fused call.  Selecting the fused kernel wherever an operator tree
    matches Equation 1 — the paper's SystemML integration — is the plan
    compiler's job ([Kf_plan.Compiler]), which this interpreter checks
    as an oracle that shares no fusion logic with it.

    The subset implemented is exactly what the studied algorithms need:
    scalars, vectors and matrices; arithmetic; comparisons and [&];
    [t(X)], [%*%], element-wise [*], [sum], [ncol], [zero_vector];
    assignment, [while] and [if]; plus the graph operators
    [sddmm]/[spmm] of the ["fusedmm"] pattern family (sparse adjacency
    x dense embedding, semiring-parameterised). *)

(** Expressions.  Infix smart constructors are provided below; [Var]
    resolves in the program environment, [Input] in the initial
    bindings. *)
type expr =
  | Const of float
  | Var of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr  (** scalar*scalar, scalar*vector, vector*vector *)
  | Div of expr * expr
  | Lt of expr * expr  (** 1.0 / 0.0 *)
  | Gt of expr * expr
  | And of expr * expr
  | Matmul of expr * expr  (** %*% *)
  | T of expr  (** transpose; only valid directly under [Matmul] *)
  | Sum of expr  (** sum of a vector's elements *)
  | Ncol of expr
  | Nrow of expr
  | Zero_vector of expr  (** zero vector of the given (scalar) length *)
  | Pow of expr * expr  (** scalar exponentiation, [^] *)
  | Read of int  (** positional input, DML's [read($k)] *)
  | Sddmm of expr * expr * string
      (** [sddmm(G, H, "semiring")]: the sampled product
          [S_ij = G_ij * edge(<H_i,H_j>)] over a sparse graph and a
          dense embedding; the string names a [Fusion.Semiring] *)
  | Spmm of expr * expr * string
      (** [spmm(S, H, "semiring")]: the aggregation
          [Z_i = op_j (S_ij * H_j)] *)

type stmt =
  | Assign of string * expr
  | While of expr * stmt list  (** condition is a scalar; 0.0 = false *)
  | If of expr * stmt list * stmt list
  | Write of expr * string  (** DML's [write(e, "name")]: export a value *)

type value =
  | Num of float
  | Vector of Matrix.Vec.t
  | Matrix of Fusion.Executor.input

type run = {
  env : (string * value) list;  (** final variable bindings *)
  outputs : (string * value) list;  (** values exported with [Write] *)
  gpu_ms : float;  (** simulated device time of all issued operators *)
  fused_launches : int;
      (** Equation-1 calls issued: under {!eval} one per [t(X) %*% p]
          ([X^T y]); under a compiled plan one per Equation-1 group
          and per fused SDDMM ⊕ SpMM chain *)
  trace : Fusion.Pattern.Trace.t;
}

exception Type_error of string
(** A DML type error: an unbound variable, operands of the wrong kind or
    shape, an unknown semiring.  Raised by {!eval} at run time and by
    the plan compiler at compile time. *)

val type_error : ('a, unit, string, 'b) format4 -> 'a
(** [type_error fmt ...] raises {!Type_error} with the formatted
    message. *)

(** {1 Value projections}

    Each raises {!Type_error} naming what it expected; shared by every
    interpreter of this language. *)

val scalar : value -> float
val vector : value -> Matrix.Vec.t
val matrix : value -> Fusion.Executor.input

val graph_sparse : value -> Matrix.Csr.t
(** The sparse (CSR) left operand of [sddmm]/[spmm]. *)

val graph_dense : value -> Matrix.Dense.t
(** The dense embedding right operand of [sddmm]/[spmm]. *)

val semiring_named : string -> Fusion.Semiring.t
(** The registered semiring of that name. *)

val eval :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?positional:value list ->
  Gpu_sim.Device.t ->
  inputs:(string * value) list ->
  stmt list ->
  run
(** Run a program on the reference interpreter: one executor call per
    operator.  [positional] supplies [read($1)], [read($2)], ...;
    [engine] (default [Fused]) runs each of those calls, and [pool]
    selects the domain pool for the [Host] engine.  Raises {!Type_error}
    when a statement it reaches is ill-typed. *)

val lookup : run -> string -> value
(** Raises [Not_found]. *)

val lookup_vector : run -> string -> Matrix.Vec.t
(** Raises [Type_error] if the binding is not a vector. *)

val linreg_cg_script : max_iterations:int -> eps:float -> stmt list
(** Listing 1 of the paper, transcribed into this AST; expects inputs
    ["V"] (matrix) and ["y"] (targets vector), leaves the solution in
    ["w"]. *)
