(* Plan execution: drive an {!Kf_ml.Session} over the lowered steps.

   Node values live in a per-run cache keyed by node id.  A node is
   computed at most once until some loop in its flush set starts an
   iteration, at which point its entry is dropped — this is how
   loop-invariant hoisting is realised: invariant nodes have empty flush
   sets, so their first forced value survives every iteration, and a
   loop that never runs never forces them at all.  Nodes chosen as
   fusion-group roots execute as one fused pattern call ({!exec_group});
   everything else makes one executor call per operator, as the
   reference interpreter ({!Sysml.Script.eval}) does. *)

open Ir
module S = Sysml.Script

type t = {
  session : Kf_ml.Session.t;
  cache : (int, S.value) Hashtbl.t;
  env : (string, S.value) Hashtbl.t;
  inputs : (string * S.value) list;
      (* [Input_named] reads the original binding even after the
         variable is reassigned; [env] holds the current one *)
  positional : S.value array;
  groups : (int, Fuse.group) Hashtbl.t;  (* fusion-group root id -> group *)
  flush_by_loop : (int, int list) Hashtbl.t;
  mutable outputs : (string * S.value) list;
  mutable fused : int;
}

let rec force st n =
  match Hashtbl.find_opt st.cache n.id with
  | Some v -> v
  | None ->
      let v =
        match Hashtbl.find_opt st.groups n.id with
        | Some g -> exec_group st g
        | None -> eval_node st n
      in
      Hashtbl.replace st.cache n.id v;
      v

and eval_node st n =
  match (n.op, n.args) with
  | Const f, _ -> S.Num f
  | Input_named name, _ -> (
      match List.assoc_opt name st.inputs with
      | Some v -> v
      | None -> S.type_error "unbound variable %s" name)
  | Input_pos k, _ ->
      if k < 1 || k > Array.length st.positional then
        S.type_error "read($%d): no such positional input" k
      else st.positional.(k - 1)
  | Var_at { var; _ }, _ -> (
      match Hashtbl.find_opt st.env var with
      | Some v -> v
      | None -> S.type_error "unbound variable %s" var)
  | Ones, _ -> (
      match n.ty with
      | Vector len -> S.Vector (Array.make len 1.0)
      | _ -> assert false)
  | Zero_vec, _ -> (
      match n.ty with
      | Vector len -> S.Vector (Matrix.Vec.create len)
      | _ -> assert false)
  | Neg, [ a ] -> (
      match force st a with
      | S.Num f -> S.Num (-.f)
      | S.Vector v -> S.Vector (Kf_ml.Session.scal st.session (-1.0) v)
      | S.Matrix _ -> S.type_error "cannot negate a matrix")
  | Bin op, [ a; b ] -> bin st op (force st a) (force st b)
  | Dot, [ a; b ] ->
      S.Num
        (Kf_ml.Session.dot st.session (S.vector (force st a))
           (S.vector (force st b)))
  | Matmul, [ m; y ] ->
      S.Vector
        (Kf_ml.Session.x_y st.session (S.matrix (force st m))
           (S.vector (force st y)))
  | Matmul_t, [ m; p ] ->
      (* every anchor normally executes through its group; this is the
         floor behaviour should one ever be forced bare *)
      st.fused <- st.fused + 1;
      S.Vector
        (Kf_ml.Session.xt_y st.session (S.matrix (force st m))
           (S.vector (force st p)) ~alpha:1.0)
  | Sddmm sr, [ g; h ] ->
      S.Matrix
        (Fusion.Executor.Sparse
           (Kf_ml.Session.sddmm ~semiring:(S.semiring_named sr) st.session
              (S.graph_sparse (force st g))
              (S.graph_dense (force st h))))
  | Spmm sr, [ s; h ] ->
      (* every Spmm anchor normally executes through its group; this is
         the floor behaviour should one ever be forced bare *)
      S.Matrix
        (Fusion.Executor.Dense
           (Kf_ml.Session.spmm ~semiring:(S.semiring_named sr) st.session
              (S.graph_sparse (force st s))
              (S.graph_dense (force st h))))
  | Transpose, _ -> S.type_error "t() is only valid inside a matrix product"
  | _ -> assert false

and bin st op a b =
  match (op, a, b) with
  | _, S.Num x, S.Num y ->
      S.Num
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> x /. y
        | Pow -> x ** y
        | Lt -> if x < y then 1.0 else 0.0
        | Gt -> if x > y then 1.0 else 0.0
        | And -> if x <> 0.0 && y <> 0.0 then 1.0 else 0.0)
  | Mul, S.Num s, S.Vector v | Mul, S.Vector v, S.Num s ->
      S.Vector (Kf_ml.Session.scal st.session s v)
  | Mul, S.Vector u, S.Vector v ->
      S.Vector (Kf_ml.Session.mul_elementwise st.session u v)
  | Add, S.Vector u, S.Vector v ->
      S.Vector (Kf_ml.Session.axpy st.session 1.0 u v)
  | Sub, S.Vector u, S.Vector v ->
      S.Vector (Kf_ml.Session.axpy st.session (-1.0) v u)
  | (Add | Sub), (S.Num _ | S.Vector _), (S.Num _ | S.Vector _) ->
      S.type_error "scalar +/- vector is not defined"
  | _ -> S.type_error "unsupported operand combination"

(* One fused pattern call for a whole chain.  The alpha factors are
   products of scalars and sign flips (bitwise-exact), and the Direct
   body's epilogue is an [xt_y] followed by an [axpy].  Recovery is the
   executor's: each call below retries, falls back and guards on its
   own. *)
and exec_group st g =
  let c = g.Fuse.g_chosen in
  match c.Fuse.c_body with
  | Fuse.Fused_graph gr ->
      (* a fusedmm-family call: the chain counts as a fused launch, the
         aggregation-only floor is a plain operator *)
      let gm = S.graph_sparse (force st gr.Fuse.gr_g) in
      let hm = S.graph_dense (force st gr.Fuse.gr_h) in
      if gr.Fuse.gr_inst = Fusion.Fusedmm.Sddmm_spmm then
        st.fused <- st.fused + 1;
      S.Matrix
        (Fusion.Executor.Dense
           (Kf_ml.Session.fusedmm
              ~semiring:(S.semiring_named gr.Fuse.gr_semiring)
              st.session gr.Fuse.gr_inst gm hm))
  | Fuse.Direct _ | Fuse.Chain _ -> (
      let x = S.matrix (force st g.Fuse.g_x) in
      let alpha =
        List.fold_left
          (fun a f ->
            match f with
            | Fuse.F_neg -> -.a
            | Fuse.F_scalar s -> a *. S.scalar (force st s))
          1.0 c.Fuse.c_alpha
      in
      let beta_of s =
        match s with None -> 1.0 | Some s -> S.scalar (force st s)
      in
      st.fused <- st.fused + 1;
      match c.Fuse.c_body with
      | Fuse.Direct p -> (
          let pv = S.vector (force st p) in
          let w = Kf_ml.Session.xt_y st.session x pv ~alpha in
          match c.Fuse.c_beta_z with
          | None -> S.Vector w
          | Some (s, z) ->
              S.Vector
                (Kf_ml.Session.axpy st.session (beta_of s)
                   (S.vector (force st z))
                   w))
      | Fuse.Chain { y; v } ->
          let yv = S.vector (force st y) in
          let vv = Option.map (fun v -> S.vector (force st v)) v in
          let beta_z =
            Option.map
              (fun (s, z) -> (beta_of s, S.vector (force st z)))
              c.Fuse.c_beta_z
          in
          S.Vector
            (Kf_ml.Session.pattern st.session x ~y:yv ?v:vv ?beta_z ~alpha ())
      | Fuse.Fused_graph _ -> assert false)

let flush st loop_id =
  match Hashtbl.find_opt st.flush_by_loop loop_id with
  | Some ids -> List.iter (Hashtbl.remove st.cache) ids
  | None -> ()

let rec exec_step st = function
  | Bind (x, n) -> Hashtbl.replace st.env x (force st n)
  | Write (n, name) -> st.outputs <- (name, force st n) :: st.outputs
  | If_ { cond; then_; else_ } ->
      if S.scalar (force st cond) <> 0.0 then List.iter (exec_step st) then_
      else List.iter (exec_step st) else_
  | While_ { loop_id; cond; body; _ } ->
      let rec loop () =
        flush st loop_id;
        if S.scalar (force st cond) <> 0.0 then begin
          List.iter (exec_step st) body;
          loop ()
        end
      in
      loop ()

let execute ?engine ?pool ?(positional = []) device ~inputs ~steps ~groups
    ~flush_by_loop () : S.run =
  let session =
    Kf_ml.Session.create ?engine ?pool device ~algorithm:"script"
  in
  let st =
    {
      session;
      cache = Hashtbl.create 64;
      env = Hashtbl.create 16;
      inputs;
      positional = Array.of_list positional;
      groups;
      flush_by_loop;
      outputs = [];
      fused = 0;
    }
  in
  List.iter (fun (name, v) -> Hashtbl.replace st.env name v) inputs;
  Kf_obs.Trace.with_span "plan.execute" (fun () ->
      List.iter (exec_step st) steps);
  {
    S.env = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.env [];
    outputs = st.outputs;
    gpu_ms = Kf_ml.Session.gpu_ms session;
    fused_launches = st.fused;
    trace = Kf_ml.Session.trace session;
  }
