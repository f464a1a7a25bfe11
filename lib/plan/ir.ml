(* The operator DAG the plan compiler works on.

   Nodes are SSA-style: every expression occurrence becomes a node whose
   arguments are other nodes, hash-consed so that structurally identical
   subtrees share one node (that sharing *is* common-subexpression
   elimination — the builder counts the hits).  Control flow stays
   outside the DAG: statements become [step]s that reference nodes, and
   the only nodes that observe mutation are [Var_at] nodes — explicit
   "read variable x here" points inserted at loop entries, loop exits
   and if-joins, each carrying the set of loops whose iteration must
   flush it (and, transitively, everything computed from it) from the
   value cache.  A node with an empty flush set is loop-invariant: it is
   computed at most once per run, which realises loop-invariant hoisting
   lazily without ever executing hoisted code that the interpreter would
   not have reached. *)

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
  mutable op : op;
  mutable args : node list;
  ty : ty;
}

type step =
  | Bind of string * node
  | Write of node * string
  | While_ of { loop_id : int; cond : node; body : step list; phis : node list }
  | If_ of { cond : node; then_ : step list; else_ : step list }

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Lt -> "lt"
  | Gt -> "gt"
  | And -> "and"
  | Pow -> "pow"

let op_name = function
  | Const f -> Printf.sprintf "const %.17g" f
  | Input_named s -> "input " ^ s
  | Input_pos k -> Printf.sprintf "input $%d" k
  | Var_at { var; serial; _ } -> Printf.sprintf "var %s@%d" var serial
  | Ones -> "ones"
  | Zero_vec -> "zeros"
  | Neg -> "neg"
  | Bin b -> binop_name b
  | Dot -> "dot"
  | Matmul -> "matmul"
  | Matmul_t -> "matmul_t"
  | Transpose -> "transpose"
  | Sddmm sr -> Printf.sprintf "sddmm[%s]" sr
  | Spmm sr -> Printf.sprintf "spmm[%s]" sr

let ty_name = function
  | Scalar -> "scalar"
  | Vector n -> Printf.sprintf "vector[%d]" n
  | Matrix_ref { rows; cols; nnz; dense } ->
      Printf.sprintf "matrix[%dx%d,nnz=%d,%s]" rows cols nnz
        (if dense then "dense" else "sparse")

(* --- builder ------------------------------------------------------------- *)

type builder = {
  mutable nodes : node list;  (* reverse creation order *)
  consed : (op * int list * ty, node) Hashtbl.t;
  mutable next_id : int;
  mutable cse_hits : int;
  mutable const_folds : int;
}

let create_builder () =
  { nodes = []; consed = Hashtbl.create 64; next_id = 0; cse_hits = 0;
    const_folds = 0 }

let fresh b op args ty =
  let n = { id = b.next_id; op; args; ty } in
  b.next_id <- b.next_id + 1;
  b.nodes <- n :: b.nodes;
  n

(* Only pure ops are consed; [Var_at] reads mutable state and its serial
   already makes it unique.  A hit on an op with arguments (or on the
   materialising leaves [Ones]/[Zero_vec]) is a CSE hit; deduplicating
   constants and input references is bookkeeping, not an optimisation. *)
let mk b op args ty =
  match op with
  | Var_at _ -> fresh b op args ty
  | _ -> (
      let key = (op, List.map (fun a -> a.id) args, ty) in
      match Hashtbl.find_opt b.consed key with
      | Some n ->
          (match op with
          | Const _ | Input_named _ | Input_pos _ -> ()
          | _ -> b.cse_hits <- b.cse_hits + 1);
          n
      | None ->
          let n = fresh b op args ty in
          Hashtbl.add b.consed key n;
          n)

let all_nodes b = List.rev b.nodes

(* --- graph queries ------------------------------------------------------- *)

let rec iter_step_roots f = function
  | Bind (_, n) | Write (n, _) -> f n
  | While_ { cond; body; _ } ->
      f cond;
      List.iter (iter_step_roots f) body
  | If_ { cond; then_; else_ } ->
      f cond;
      List.iter (iter_step_roots f) then_;
      List.iter (iter_step_roots f) else_

(* Nodes reachable from the steps, in a deterministic order. *)
let reachable steps =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit n =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id ();
      List.iter visit n.args;
      acc := n :: !acc
    end
  in
  List.iter (iter_step_roots visit) steps;
  List.rev !acc

(* Total reference count per node: one per argument position of a
   reachable consumer plus one per step that roots it.  The fusion
   enumerator treats [uses = 1] as "exclusively consumed", the
   materialisation-point condition of Boehm et al. 2018. *)
let use_counts steps =
  let uses = Hashtbl.create 64 in
  let bump n =
    Hashtbl.replace uses n.id (1 + Option.value ~default:0 (Hashtbl.find_opt uses n.id))
  in
  let nodes = reachable steps in
  List.iter (fun n -> List.iter bump n.args) nodes;
  List.iter (iter_step_roots bump) steps;
  uses

(* Single reachable consumer of each node (None when 0 or >1 references,
   counting step roots as consumers that block climbing). *)
let sole_parents steps =
  let uses = use_counts steps in
  let parent = Hashtbl.create 64 in
  List.iter
    (fun n ->
      List.iter
        (fun a ->
          if Hashtbl.find_opt uses a.id = Some 1 then Hashtbl.replace parent a.id n)
        n.args)
    (reachable steps);
  (uses, parent)

(* For each node, the set of loop ids whose iteration must flush its
   cached value: the union over its [Var_at] ancestry.  Returned as a
   per-loop list of node ids, which is what the executor consumes. *)
let flush_sets steps =
  let nodes = reachable steps in
  let memo : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let rec set_of n =
    match Hashtbl.find_opt memo n.id with
    | Some s -> s
    | None ->
        let own = match n.op with Var_at { flush_on; _ } -> flush_on | _ -> [] in
        let s =
          List.fold_left
            (fun acc a -> List.fold_left (fun acc l -> if List.mem l acc then acc else l :: acc) acc (set_of a))
            own n.args
        in
        Hashtbl.replace memo n.id s;
        s
  in
  let by_loop : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun n ->
      List.iter
        (fun l ->
          Hashtbl.replace by_loop l
            (n.id :: Option.value ~default:[] (Hashtbl.find_opt by_loop l)))
        (set_of n))
    nodes;
  (memo, by_loop)
