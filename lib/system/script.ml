type expr =
  | Const of float
  | Var of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Lt of expr * expr
  | Gt of expr * expr
  | And of expr * expr
  | Matmul of expr * expr
  | T of expr
  | Sum of expr
  | Ncol of expr
  | Nrow of expr
  | Zero_vector of expr
  | Pow of expr * expr
  | Read of int
  | Sddmm of expr * expr * string  (* G, H, semiring name *)
  | Spmm of expr * expr * string  (* S, H, semiring name *)

type stmt =
  | Assign of string * expr
  | While of expr * stmt list
  | If of expr * stmt list * stmt list
  | Write of expr * string

type value =
  | Num of float
  | Vector of Matrix.Vec.t
  | Matrix of Fusion.Executor.input

type run = {
  env : (string * value) list;
  outputs : (string * value) list;
  gpu_ms : float;
  fused_launches : int;
  trace : Fusion.Pattern.Trace.t;
}

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

type state = {
  session : Kf_ml.Session.t;
  bindings : (string, value) Hashtbl.t;
  positional : value array;
  mutable outputs : (string * value) list;
  mutable fused : int;
}

let scalar = function
  | Num f -> f
  | Vector _ -> type_error "expected a scalar, got a vector"
  | Matrix _ -> type_error "expected a scalar, got a matrix"

let vector = function
  | Vector v -> v
  | Num _ -> type_error "expected a vector, got a scalar"
  | Matrix _ -> type_error "expected a vector, got a matrix"

let matrix = function
  | Matrix m -> m
  | Num _ -> type_error "expected a matrix, got a scalar"
  | Vector _ -> type_error "expected a matrix, got a vector"

let graph_sparse v =
  match matrix v with
  | Fusion.Executor.Sparse g -> g
  | Fusion.Executor.Dense _ ->
      type_error "sddmm/spmm need a sparse (CSR) left operand"

let graph_dense v =
  match matrix v with
  | Fusion.Executor.Dense h -> h
  | Fusion.Executor.Sparse _ ->
      type_error "sddmm/spmm need a dense embedding right operand"

let semiring_named name =
  match Fusion.Semiring.find name with
  | Some sr -> sr
  | None -> type_error "unknown semiring %S" name

(* --- evaluation ------------------------------------------------------------

   One executor call per operator, in source order: no tree is ever
   collapsed into a fused call, so this interpreter is the unfused
   reference the plan compiler ([Kf_plan]) is checked against. *)

let rec eval st = function
  | Const f -> Num f
  | Var name -> (
      match Hashtbl.find_opt st.bindings name with
      | Some v -> v
      | None -> type_error "unbound variable %s" name)
  | Neg e -> (
      match eval st e with
      | Num f -> Num (-.f)
      | Vector v -> Vector (Kf_ml.Session.scal st.session (-1.0) v)
      | Matrix _ -> type_error "cannot negate a matrix")
  | Add (a, b) -> arith st ( +. ) `Add a b
  | Sub (a, b) -> arith st ( -. ) `Sub a b
  | Mul (a, b) -> arith st ( *. ) `Mul a b
  | Div (a, b) -> Num (scalar (eval st a) /. scalar (eval st b))
  | Lt (a, b) ->
      Num (if scalar (eval st a) < scalar (eval st b) then 1.0 else 0.0)
  | Gt (a, b) ->
      Num (if scalar (eval st a) > scalar (eval st b) then 1.0 else 0.0)
  | And (a, b) ->
      Num
        (if scalar (eval st a) <> 0.0 && scalar (eval st b) <> 0.0 then 1.0
         else 0.0)
  | Matmul (T te, rhs) -> (
      match (eval st te, eval st rhs) with
      | Vector u, Vector v ->
          (* t(p) %*% q over vectors is a dot product *)
          Num (Kf_ml.Session.dot st.session u v)
      | Matrix x, Vector p ->
          (* counted the way the plan interpreter counts a bare X^T y *)
          st.fused <- st.fused + 1;
          Vector (Kf_ml.Session.xt_y st.session x p ~alpha:1.0)
      | _ -> type_error "unsupported transpose product")
  | Matmul (me, ye) -> (
      let m = matrix (eval st me) in
      match eval st ye with
      | Vector y -> Vector (Kf_ml.Session.x_y st.session m y)
      | _ -> type_error "matrix product needs a vector right operand")
  | T _ -> type_error "t() is only valid inside a matrix product"
  | Sum (Mul (a, b)) -> (
      (* sum(u * v) is a dot product — one kernel, as cuBLAS would run *)
      match (eval st a, eval st b) with
      | Vector u, Vector v -> Num (Kf_ml.Session.dot st.session u v)
      | va, vb -> Num (scalar va *. scalar vb))
  | Sum e ->
      let v = vector (eval st e) in
      Num (Kf_ml.Session.dot st.session v (Array.make (Array.length v) 1.0))
  | Ncol e -> Num (float_of_int (Fusion.Executor.cols (matrix (eval st e))))
  | Nrow e -> Num (float_of_int (Fusion.Executor.rows (matrix (eval st e))))
  | Zero_vector e ->
      Vector (Matrix.Vec.create (int_of_float (scalar (eval st e))))
  | Pow (a, b) -> Num (scalar (eval st a) ** scalar (eval st b))
  | Sddmm (ge, he, sr) ->
      let g = graph_sparse (eval st ge) in
      let h = graph_dense (eval st he) in
      Matrix
        (Fusion.Executor.Sparse
           (Kf_ml.Session.sddmm ~semiring:(semiring_named sr) st.session g h))
  | Spmm (se, he, sr) ->
      let s = graph_sparse (eval st se) in
      let h = graph_dense (eval st he) in
      Matrix
        (Fusion.Executor.Dense
           (Kf_ml.Session.spmm ~semiring:(semiring_named sr) st.session s h))
  | Read k ->
      if k < 1 || k > Array.length st.positional then
        type_error "read($%d): no such positional input" k
      else st.positional.(k - 1)

and arith st op kind a b =
  match (eval st a, eval st b) with
  | Num x, Num y -> Num (op x y)
  | Num s, Vector v | Vector v, Num s -> (
      match kind with
      | `Mul -> Vector (Kf_ml.Session.scal st.session s v)
      | `Add | `Sub ->
          type_error "scalar +/- vector is not defined")
  | Vector u, Vector v -> (
      match kind with
      | `Add -> Vector (Kf_ml.Session.axpy st.session 1.0 u v)
      | `Sub -> Vector (Kf_ml.Session.axpy st.session (-1.0) v u)
      | `Mul -> Vector (Kf_ml.Session.mul_elementwise st.session u v))
  | _ -> type_error "unsupported operand combination"

let stmt_label = function
  | Assign (name, _) -> "stmt.assign " ^ name
  | While _ -> "stmt.while"
  | If _ -> "stmt.if"
  | Write (_, name) -> "stmt.write " ^ name

let rec exec st stmt =
  Kf_obs.Trace.with_span (stmt_label stmt) @@ fun () ->
  match stmt with
  | Assign (name, e) -> Hashtbl.replace st.bindings name (eval st e)
  | While (cond, body) ->
      while scalar (eval st cond) <> 0.0 do
        List.iter (exec st) body
      done
  | If (cond, then_, else_) ->
      if scalar (eval st cond) <> 0.0 then List.iter (exec st) then_
      else List.iter (exec st) else_
  | Write (e, name) -> st.outputs <- (name, eval st e) :: st.outputs

let eval ?engine ?pool ?(positional = []) device ~inputs program =
  let session =
    Kf_ml.Session.create ?engine ?pool device ~algorithm:"script"
  in
  let st =
    {
      session;
      bindings = Hashtbl.create 16;
      positional = Array.of_list positional;
      outputs = [];
      fused = 0;
    }
  in
  List.iter (fun (name, v) -> Hashtbl.replace st.bindings name v) inputs;
  Kf_obs.Trace.with_span "script.eval" (fun () -> List.iter (exec st) program);
  {
    env = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.bindings [];
    outputs = st.outputs;
    gpu_ms = Kf_ml.Session.gpu_ms session;
    fused_launches = st.fused;
    trace = Kf_ml.Session.trace session;
  }

let lookup run name = List.assoc name run.env

let lookup_vector run name =
  match lookup run name with
  | Vector v -> v
  | _ -> type_error "%s is not a vector" name

(* Listing 1, transcribed. *)
let linreg_cg_script ~max_iterations ~eps =
  let v = Var "V" and y = Var "y" in
  [
    Assign ("r", Neg (Matmul (T v, y)));
    Assign ("p", Neg (Var "r"));
    Assign ("nr2", Sum (Mul (Var "r", Var "r")));
    Assign ("nr2_target", Mul (Var "nr2", Const 1e-12));
    Assign ("w", Zero_vector (Ncol v));
    Assign ("i", Const 0.0);
    While
      ( And
          ( Lt (Var "i", Const (float_of_int max_iterations)),
            Gt (Var "nr2", Var "nr2_target") ),
        [
          Assign
            ( "q",
              Add
                ( Matmul (T v, Matmul (v, Var "p")),
                  Mul (Const eps, Var "p") ) );
          Assign ("alpha", Div (Var "nr2", Sum (Mul (Var "p", Var "q"))));
          Assign ("w", Add (Var "w", Mul (Var "alpha", Var "p")));
          Assign ("old_nr2", Var "nr2");
          Assign ("r", Add (Var "r", Mul (Var "alpha", Var "q")));
          Assign ("nr2", Sum (Mul (Var "r", Var "r")));
          Assign ("beta", Div (Var "nr2", Var "old_nr2"));
          Assign ("p", Add (Neg (Var "r"), Mul (Var "beta", Var "p")));
          Assign ("i", Add (Var "i", Const 1.0));
        ] );
  ]
