(* Lowering: [Sysml.Script.stmt list] -> shape-annotated operator DAG.

   The compiler specialises the plan to one concrete set of inputs (the
   same pair the interpreter would receive), so every node carries a
   fully resolved type: scalar inputs fold to constants, [ncol]/[nrow]
   fold to constants, and vector lengths / matrix shapes are exact.
   Typing mirrors the reference interpreter's dynamic rules: a program
   it would reject at run time raises [Script.Type_error] here, and so
   does ill-typed code in a branch that would never run.  A type that
   depends on run-time values (a [matrix(0, rows=e)] length that is not
   a plan-time constant, a variable whose type differs across a loop
   iteration or the arms of an if, or that a loop reads before it
   assigns it) raises [Not_static]. *)

open Ir
module S = Sysml.Script

exception Not_static of string

let type_error = S.type_error

let not_static fmt = Printf.ksprintf (fun s -> raise (Not_static s)) fmt

type result = { steps : step list; builder : builder; loops : int }

type ctx = {
  b : builder;
  inputs : (string * S.value) list;
  positional : S.value array;
  mutable serial : int;
  mutable next_loop : int;
  mutable enclosing : int list;  (* innermost first *)
  mutable loop_assigned : string list;
      (* variables the enclosing loops' bodies assign: one read before
         its assignment is bound only from the second iteration on *)
}

let ty_of_value = function
  | S.Num _ -> Scalar
  | S.Vector v -> Vector (Array.length v)
  | S.Matrix m ->
      Matrix_ref
        {
          rows = Fusion.Executor.rows m;
          cols = Fusion.Executor.cols m;
          nnz = Fusion.Executor.nnz m;
          dense = (match m with Fusion.Executor.Dense _ -> true | Fusion.Executor.Sparse _ -> false);
        }

let const ctx f = mk ctx.b (Const f) [] Scalar

let check_semiring sr =
  if Fusion.Semiring.find sr = None then
    type_error "unknown semiring %S (available: %s)" sr
      (String.concat ", " Fusion.Semiring.names)

let fold ctx f =
  ctx.b.const_folds <- ctx.b.const_folds + 1;
  const ctx f

let var_at ctx var ~flush_on ty =
  ctx.serial <- ctx.serial + 1;
  mk ctx.b (Var_at { var; serial = ctx.serial; flush_on }) [] ty

(* Current meaning of a variable: the vars table if assigned, else a
   named-input reference (hash-consed, so every use is one node). *)
let current_node ctx vars name =
  match Hashtbl.find_opt vars name with
  | Some n -> Some n
  | None -> (
      match List.assoc_opt name ctx.inputs with
      | Some (S.Num f) -> Some (const ctx f)
      | Some v -> Some (mk ctx.b (Input_named name) [] (ty_of_value v))
      | None -> None)

let lower_var ctx vars name =
  match current_node ctx vars name with
  | Some n -> n
  | None when List.mem name ctx.loop_assigned ->
      not_static "variable %s is read before its assignment in a loop" name
  | None -> type_error "unbound variable %s" name

let rec lower_expr ctx vars (e : S.expr) : node =
  match e with
  | S.Const f -> const ctx f
  | S.Var x -> lower_var ctx vars x
  | S.Read k ->
      if k < 1 || k > Array.length ctx.positional then
        type_error "read($%d): no such positional input" k
      else (
        match ctx.positional.(k - 1) with
        | S.Num f -> fold ctx f
        | v -> mk ctx.b (Input_pos k) [] (ty_of_value v))
  | S.Neg e -> (
      let a = lower_expr ctx vars e in
      match (a.op, a.ty) with
      | Const f, _ -> fold ctx (-.f)
      | _, (Scalar | Vector _) -> mk ctx.b Neg [ a ] a.ty
      | _, Matrix_ref _ -> type_error "cannot negate a matrix")
  | S.Add (x, y) -> lower_bin ctx vars Add x y
  | S.Sub (x, y) -> lower_bin ctx vars Sub x y
  | S.Mul (x, y) -> lower_bin ctx vars Mul x y
  | S.Div (x, y) -> lower_bin ctx vars Div x y
  | S.Lt (x, y) -> lower_bin ctx vars Lt x y
  | S.Gt (x, y) -> lower_bin ctx vars Gt x y
  | S.And (x, y) -> lower_bin ctx vars And x y
  | S.Pow (x, y) -> lower_bin ctx vars Pow x y
  | S.Matmul (S.T inner, rhs) -> (
      let a = lower_expr ctx vars inner in
      let b = lower_expr ctx vars rhs in
      match (a.ty, b.ty) with
      | Vector n, Vector m when n = m -> mk ctx.b Dot [ a; b ] Scalar
      | Vector n, Vector m ->
          type_error "dot product of lengths %d and %d" n m
      | Matrix_ref { rows; cols; nnz; dense }, Vector m when rows = m ->
          let tr =
            mk ctx.b Transpose [ a ]
              (Matrix_ref { rows = cols; cols = rows; nnz; dense })
          in
          mk ctx.b Matmul [ tr; b ] (Vector cols)
      | Matrix_ref { rows; _ }, Vector m ->
          type_error "t(X) %%*%% y: X has %d rows but y has %d elements" rows m
      | Matrix_ref _, _ ->
          type_error "matrix product needs a vector right operand"
      | _ -> type_error "unsupported transpose product")
  | S.Matmul (a, b) -> (
      let m = lower_expr ctx vars a in
      let y = lower_expr ctx vars b in
      match (m.ty, y.ty) with
      | Matrix_ref { rows; cols; _ }, Vector n when cols = n ->
          mk ctx.b Matmul [ m; y ] (Vector rows)
      | Matrix_ref { cols; _ }, Vector n ->
          type_error "X %%*%% y: X has %d columns but y has %d elements" cols n
      | Matrix_ref _, _ ->
          type_error "matrix product needs a vector right operand"
      | _ -> type_error "expected a matrix, got a %s" (ty_name m.ty))
  | S.T _ -> type_error "t() is only valid inside a matrix product"
  | S.Sum (S.Mul (x, y)) -> (
      let a = lower_expr ctx vars x in
      let b = lower_expr ctx vars y in
      match (a.ty, b.ty) with
      | Vector n, Vector m when n = m -> mk ctx.b Dot [ a; b ] Scalar
      | Vector n, Vector m -> type_error "dot product of lengths %d and %d" n m
      | Scalar, Scalar -> (
          match (a.op, b.op) with
          | Const f, Const g -> fold ctx (f *. g)
          | _ -> mk ctx.b (Bin Mul) [ a; b ] Scalar)
      | _ -> type_error "expected a scalar, got a vector")
  | S.Sum e -> (
      let a = lower_expr ctx vars e in
      match a.ty with
      | Vector n -> mk ctx.b Dot [ a; mk ctx.b Ones [] (Vector n) ] Scalar
      | _ -> type_error "expected a vector, got a scalar")
  | S.Ncol e -> (
      let a = lower_expr ctx vars e in
      match a.ty with
      | Matrix_ref { cols; _ } -> fold ctx (float_of_int cols)
      | _ -> type_error "expected a matrix, got a %s" (ty_name a.ty))
  | S.Nrow e -> (
      let a = lower_expr ctx vars e in
      match a.ty with
      | Matrix_ref { rows; _ } -> fold ctx (float_of_int rows)
      | _ -> type_error "expected a matrix, got a %s" (ty_name a.ty))
  | S.Zero_vector e -> (
      let a = lower_expr ctx vars e in
      match a.op with
      | Const f -> mk ctx.b Zero_vec [] (Vector (int_of_float f))
      | _ ->
          not_static
            "matrix(0, rows=...): the length is not a plan-time constant")
  | S.Sddmm (ge, he, sr) -> (
      check_semiring sr;
      let g = lower_expr ctx vars ge in
      let h = lower_expr ctx vars he in
      match (g.ty, h.ty) with
      | ( Matrix_ref { rows; cols; nnz; dense = false },
          Matrix_ref { rows = hr; dense = true; _ } ) ->
          if rows <> cols then
            type_error "sddmm: the graph must be square, got %dx%d" rows cols;
          if rows <> hr then
            type_error
              "sddmm: the embedding must have one row per node (%d vs %d)"
              rows hr;
          (* the sampled product shares G's sparsity structure *)
          mk ctx.b (Sddmm sr) [ g; h ]
            (Matrix_ref { rows; cols; nnz; dense = false })
      | Matrix_ref { dense = true; _ }, _ ->
          type_error "sddmm: the graph must be sparse"
      | _, Matrix_ref { dense = false; _ } ->
          type_error "sddmm: the embedding must be dense"
      | _ -> type_error "sddmm expects a sparse graph and a dense embedding")
  | S.Spmm (se, he, sr) -> (
      check_semiring sr;
      let s = lower_expr ctx vars se in
      let h = lower_expr ctx vars he in
      match (s.ty, h.ty) with
      | ( Matrix_ref { rows; cols; dense = false; _ },
          Matrix_ref { rows = hr; cols = hc; dense = true; _ } ) ->
          if cols <> hr then
            type_error
              "spmm: S columns must match the embedding's rows (%d vs %d)"
              cols hr;
          mk ctx.b (Spmm sr) [ s; h ]
            (Matrix_ref { rows; cols = hc; nnz = rows * hc; dense = true })
      | Matrix_ref { dense = true; _ }, _ ->
          type_error "spmm: the left operand must be sparse"
      | _, Matrix_ref { dense = false; _ } ->
          type_error "spmm: the embedding must be dense"
      | _ -> type_error "spmm expects a sparse matrix and a dense embedding")

and lower_bin ctx vars op x y =
  let a = lower_expr ctx vars x in
  let b = lower_expr ctx vars y in
  let fold2 f g =
    match op with
    | Add -> fold ctx (f +. g)
    | Sub -> fold ctx (f -. g)
    | Mul -> fold ctx (f *. g)
    | Div -> fold ctx (f /. g)
    | Pow -> fold ctx (f ** g)
    | Lt -> fold ctx (if f < g then 1.0 else 0.0)
    | Gt -> fold ctx (if f > g then 1.0 else 0.0)
    | And -> fold ctx (if f <> 0.0 && g <> 0.0 then 1.0 else 0.0)
  in
  match (a.op, b.op) with
  | Const f, Const g -> fold2 f g
  | _ -> (
      match op with
      | Add | Sub -> (
          match (a.ty, b.ty) with
          | Scalar, Scalar -> mk ctx.b (Bin op) [ a; b ] Scalar
          | Vector n, Vector m when n = m -> mk ctx.b (Bin op) [ a; b ] (Vector n)
          | Vector n, Vector m -> type_error "vector lengths %d and %d differ" n m
          | (Scalar, Vector _ | Vector _, Scalar) ->
              type_error "scalar +/- vector is not defined"
          | _ -> type_error "unsupported operand combination")
      | Mul -> (
          match (a.ty, b.ty) with
          | Scalar, Scalar -> mk ctx.b (Bin Mul) [ a; b ] Scalar
          | Scalar, Vector n | Vector n, Scalar ->
              mk ctx.b (Bin Mul) [ a; b ] (Vector n)
          | Vector n, Vector m when n = m -> mk ctx.b (Bin Mul) [ a; b ] (Vector n)
          | Vector n, Vector m -> type_error "vector lengths %d and %d differ" n m
          | _ -> type_error "unsupported operand combination")
      | Div | Lt | Gt | And | Pow -> (
          match (a.ty, b.ty) with
          | Scalar, Scalar -> mk ctx.b (Bin op) [ a; b ] Scalar
          | _ -> type_error "expected a scalar, got a vector"))

let lower_scalar ctx vars e =
  let n = lower_expr ctx vars e in
  match n.ty with
  | Scalar -> n
  | _ -> type_error "expected a scalar, got a %s" (ty_name n.ty)

let rec assigned_vars acc = function
  | S.Assign (x, _) -> if List.mem x acc then acc else x :: acc
  | S.While (_, body) -> List.fold_left assigned_vars acc body
  | S.If (_, t, e) ->
      List.fold_left assigned_vars (List.fold_left assigned_vars acc t) e
  | S.Write _ -> acc

let rec lower_stmt ctx vars (s : S.stmt) : step =
  match s with
  | S.Assign (x, e) ->
      let n = lower_expr ctx vars e in
      Hashtbl.replace vars x n;
      Bind (x, n)
  | S.Write (e, name) -> Write (lower_expr ctx vars e, name)
  | S.If (c, t, e) ->
      let cond = lower_scalar ctx vars c in
      let vt = Hashtbl.copy vars in
      let ve = Hashtbl.copy vars in
      let then_ = List.map (lower_stmt ctx vt) t in
      let else_ = List.map (lower_stmt ctx ve) e in
      let assigned =
        List.fold_left assigned_vars (List.fold_left assigned_vars [] t) e
      in
      List.iter
        (fun x ->
          let ty =
            match (Hashtbl.find_opt vt x, Hashtbl.find_opt ve x) with
            | Some a, Some b ->
                if a.ty = b.ty then a.ty
                else
                  not_static "variable %s has conflicting types across if" x
            | Some a, None -> a.ty
            | None, Some b -> b.ty
            | None, None -> assert false
          in
          Hashtbl.replace vars x (var_at ctx x ~flush_on:ctx.enclosing ty))
        assigned;
      If_ { cond; then_; else_ }
  | S.While (c, body) ->
      let loop_id = ctx.next_loop in
      ctx.next_loop <- loop_id + 1;
      let assigned = List.fold_left assigned_vars [] body in
      let outer = ctx.enclosing in
      let phis =
        List.filter_map
          (fun x ->
            match current_node ctx vars x with
            | Some cur ->
                let phi = var_at ctx x ~flush_on:(loop_id :: outer) cur.ty in
                Hashtbl.replace vars x phi;
                Some (x, phi)
            | None -> None)
          assigned
      in
      let outer_assigned = ctx.loop_assigned in
      ctx.enclosing <- loop_id :: outer;
      ctx.loop_assigned <- assigned @ outer_assigned;
      let cond = lower_scalar ctx vars c in
      let body_steps = List.map (lower_stmt ctx vars) body in
      ctx.enclosing <- outer;
      ctx.loop_assigned <- outer_assigned;
      List.iter
        (fun (x, phi) ->
          match Hashtbl.find_opt vars x with
          | Some final when final.ty <> phi.ty ->
              not_static "variable %s changes type across loop iterations" x
          | _ -> ())
        phis;
      List.iter
        (fun x ->
          match Hashtbl.find_opt vars x with
          | Some final ->
              Hashtbl.replace vars x (var_at ctx x ~flush_on:outer final.ty)
          | None -> ())
        assigned;
      While_ { loop_id; cond; body = body_steps; phis = List.map snd phis }

let program ~inputs ~positional (stmts : S.stmt list) : result =
  let ctx =
    {
      b = create_builder ();
      inputs;
      positional = Array.of_list positional;
      serial = 0;
      next_loop = 0;
      enclosing = [];
      loop_assigned = [];
    }
  in
  let vars = Hashtbl.create 16 in
  let steps =
    Kf_obs.Trace.with_span "plan.lower" (fun () ->
        List.map (lower_stmt ctx vars) stmts)
  in
  { steps; builder = ctx.b; loops = ctx.next_loop }
