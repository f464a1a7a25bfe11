open Ir
module S = Sysml.Script

type t = {
  steps : step list;
  builder : builder;
  loops : int;
  hoists : Passes.hoist list;
  pushdowns : int;
  groups : (int, Fuse.group) Hashtbl.t;
  ordered_groups : Fuse.group list;
  flush_by_loop : (int, int list) Hashtbl.t;
  device : Gpu_sim.Device.t;
  engine : Fusion.Executor.engine option;
  pool : Par.Pool.t option;
  inputs : (string * S.value) list;
  positional : S.value list;
}

(* The cost model prefers the real input (its [row_off] drives the
   partition-skew estimate); a matrix that only exists mid-plan is
   priced from its inferred shape. *)
let mat_of_node ~inputs ~positional (n : node) : Cost.mat =
  let of_value = function
    | S.Matrix m -> Some (Cost.mat_of_input m)
    | _ -> None
  in
  let from_ty () =
    match n.ty with
    | Matrix_ref { rows; cols; nnz; dense } ->
        { Cost.shape = { Cost.rows; cols; nnz; dense }; row_off = None }
    | ty -> type_error "fusion anchor has type %s, not matrix" (ty_name ty)
  in
  let resolved =
    match n.op with
    | Input_named name -> Option.bind (List.assoc_opt name inputs) of_value
    | Input_pos k -> Option.bind (List.nth_opt positional (k - 1)) of_value
    | _ -> None
  in
  match resolved with Some m -> m | None -> from_ty ()

let compile ?engine ?pool ?host ?(overhead_ms = 0.05) ?(positional = [])
    device ~inputs program =
  Kf_obs.Trace.with_span "plan.compile" @@ fun () ->
  let lowered = Lower.program ~inputs ~positional program in
  let steps = lowered.Lower.steps in
  let hoists = Passes.hoist_invariants steps in
  let pushdowns = Passes.push_transposes steps in
  let _, flush_by_loop = flush_sets steps in
  let cost_engine = Option.value ~default:Fusion.Executor.Fused engine in
  let host =
    match host with
    | Some h -> h
    | None -> Cost.host_of_bench_file "BENCH_host.json"
  in
  let domains =
    match (pool, cost_engine) with
    | Some p, _ -> Par.Pool.size p
    | None, Fusion.Executor.Host -> Par.Pool.default_size ()
    | None, _ -> 1
  in
  let workers =
    match cost_engine with
    | Fusion.Executor.Dist -> Kf_dist.Cluster.default_size ()
    | _ -> 1
  in
  let ctx =
    Cost.create ~host ~overhead_ms ~domains ~workers ~engine:cost_engine device
  in
  let groups, ordered_groups =
    Kf_obs.Trace.with_span "plan.cost" (fun () ->
        Fuse.select ctx ~mat_of:(mat_of_node ~inputs ~positional) steps)
  in
  {
    steps;
    builder = lowered.Lower.builder;
    loops = lowered.Lower.loops;
    hoists;
    pushdowns;
    groups;
    ordered_groups;
    flush_by_loop;
    device;
    engine;
    pool;
    inputs;
    positional;
  }

let execute t =
  Interp.execute ?engine:t.engine ?pool:t.pool ~positional:t.positional
    t.device ~inputs:t.inputs ~steps:t.steps ~groups:t.groups
    ~flush_by_loop:t.flush_by_loop ()

(* --- report accessors ----------------------------------------------------- *)

let cse_hits t = t.builder.cse_hits

let const_folds t = t.builder.const_folds

let pushdowns t = t.pushdowns

let hoists t = t.hoists

let hoisted t =
  List.map
    (fun h -> (h.Passes.h_loop, List.length h.Passes.h_nodes))
    t.hoists

let groups t = t.ordered_groups

let chosen_descriptors t =
  List.map (fun g -> g.Fuse.g_chosen.Fuse.c_desc) t.ordered_groups

let chosen_instantiations t =
  (* family-generic plans report eq1 groups here; other families appear
     only through [chosen_descriptors] *)
  List.filter_map
    (fun g -> Fusion.Pattern.of_descriptor g.Fuse.g_chosen.Fuse.c_desc)
    t.ordered_groups

(* --- explain -------------------------------------------------------------- *)

let explain t =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "plan: %d nodes, %d top-level steps, %d loops\n"
    (List.length (reachable t.steps))
    (List.length t.steps) t.loops;
  pf "rewrites: %d cse hits, %d constants folded, %d transposes pushed into X^T*y\n"
    t.builder.cse_hits t.builder.const_folds t.pushdowns;
  List.iter
    (fun h ->
      pf "loop %d: %d loop-invariant node%s hoisted" h.Passes.h_loop
        (List.length h.Passes.h_nodes)
        (if List.length h.Passes.h_nodes = 1 then "" else "s");
      if h.Passes.h_nodes <> [] then
        pf " (%s)"
          (String.concat ", "
             (List.map
                (fun n -> Printf.sprintf "%s #%d" (op_name n.op) n.id)
                h.Passes.h_nodes));
      pf "\n")
    t.hoists;
  List.iter
    (fun g ->
      let chosen = g.Fuse.g_chosen in
      pf "fusion group at node #%d (anchor %s #%d):\n" chosen.Fuse.c_root.id
        (op_name g.Fuse.g_anchor.op)
        g.Fuse.g_anchor.id;
      let line mark (c : Fuse.candidate) =
        pf "  %s %-24s covers %2d nodes, %d op%s, est %.4f ms\n" mark
          c.Fuse.c_desc.Fusion.Pattern_family.label
          (1 + List.length c.Fuse.c_absorbed)
          c.Fuse.c_ops
          (if c.Fuse.c_ops = 1 then "" else "s")
          c.Fuse.c_total_ms
      in
      line "*" chosen;
      List.iter (line " ") g.Fuse.g_rejected)
    t.ordered_groups;
  Buffer.contents buf

(* --- IR as JSON ----------------------------------------------------------- *)

let ty_json = function
  | Scalar -> Kf_obs.Json.Obj [ ("kind", Kf_obs.Json.Str "scalar") ]
  | Vector n ->
      Kf_obs.Json.Obj
        [ ("kind", Kf_obs.Json.Str "vector"); ("len", Kf_obs.Json.Int n) ]
  | Matrix_ref { rows; cols; nnz; dense } ->
      Kf_obs.Json.Obj
        [
          ("kind", Kf_obs.Json.Str "matrix");
          ("rows", Kf_obs.Json.Int rows);
          ("cols", Kf_obs.Json.Int cols);
          ("nnz", Kf_obs.Json.Int nnz);
          ("dense", Kf_obs.Json.Bool dense);
        ]

let node_json n =
  Kf_obs.Json.Obj
    [
      ("id", Kf_obs.Json.Int n.id);
      ("op", Kf_obs.Json.Str (op_name n.op));
      ("args", Kf_obs.Json.List (List.map (fun a -> Kf_obs.Json.Int a.id) n.args));
      ("ty", ty_json n.ty);
    ]

let rec step_json = function
  | Bind (x, n) ->
      Kf_obs.Json.Obj
        [ ("bind", Kf_obs.Json.Str x); ("node", Kf_obs.Json.Int n.id) ]
  | Write (n, name) ->
      Kf_obs.Json.Obj
        [ ("write", Kf_obs.Json.Str name); ("node", Kf_obs.Json.Int n.id) ]
  | While_ { loop_id; cond; body; phis } ->
      Kf_obs.Json.Obj
        [
          ( "while",
            Kf_obs.Json.Obj
              [
                ("loop", Kf_obs.Json.Int loop_id);
                ("cond", Kf_obs.Json.Int cond.id);
                ( "phis",
                  Kf_obs.Json.List
                    (List.map (fun n -> Kf_obs.Json.Int n.id) phis) );
                ("body", Kf_obs.Json.List (List.map step_json body));
              ] );
        ]
  | If_ { cond; then_; else_ } ->
      Kf_obs.Json.Obj
        [
          ( "if",
            Kf_obs.Json.Obj
              [
                ("cond", Kf_obs.Json.Int cond.id);
                ("then", Kf_obs.Json.List (List.map step_json then_));
                ("else", Kf_obs.Json.List (List.map step_json else_));
              ] );
        ]

let candidate_json (c : Fuse.candidate) =
  Kf_obs.Json.Obj
    [
      ( "instantiation",
        Kf_obs.Json.Str c.Fuse.c_desc.Fusion.Pattern_family.label );
      ( "family",
        Kf_obs.Json.Str c.Fuse.c_desc.Fusion.Pattern_family.family );
      ("root", Kf_obs.Json.Int c.Fuse.c_root.id);
      ("covers", Kf_obs.Json.Int (1 + List.length c.Fuse.c_absorbed));
      ("operators", Kf_obs.Json.Int c.Fuse.c_ops);
      ("est_ms", Kf_obs.Json.Float c.Fuse.c_total_ms);
    ]

let group_json (g : Fuse.group) =
  Kf_obs.Json.Obj
    [
      ("anchor", Kf_obs.Json.Int g.Fuse.g_anchor.id);
      ("chosen", candidate_json g.Fuse.g_chosen);
      ("rejected", Kf_obs.Json.List (List.map candidate_json g.Fuse.g_rejected));
    ]

let to_json t =
  Kf_obs.Json.Obj
    [
      ("schema", Kf_obs.Json.Str "kf-plan-ir/1");
      ("nodes", Kf_obs.Json.List (List.map node_json (reachable t.steps)));
      ("steps", Kf_obs.Json.List (List.map step_json t.steps));
      ( "report",
        Kf_obs.Json.Obj
          [
            ("cse_hits", Kf_obs.Json.Int t.builder.cse_hits);
            ("const_folds", Kf_obs.Json.Int t.builder.const_folds);
            ("transpose_pushdowns", Kf_obs.Json.Int t.pushdowns);
            ( "hoisted",
              Kf_obs.Json.List
                (List.map
                   (fun h ->
                     Kf_obs.Json.Obj
                       [
                         ("loop", Kf_obs.Json.Int h.Passes.h_loop);
                         (* self-describing {id, op} pairs: hoisting is
                            reported before transpose pushdown, so a
                            hoisted [transpose] may no longer be in the
                            (post-pushdown) node list *)
                         ( "nodes",
                           Kf_obs.Json.List
                             (List.map
                                (fun n ->
                                  Kf_obs.Json.Obj
                                    [
                                      ("id", Kf_obs.Json.Int n.id);
                                      ("op", Kf_obs.Json.Str (op_name n.op));
                                    ])
                                h.Passes.h_nodes) );
                       ])
                   t.hoists) );
          ] );
      ("groups", Kf_obs.Json.List (List.map group_json t.ordered_groups));
    ]
