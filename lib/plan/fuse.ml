(* Fusion-group enumeration and cost-based selection.

   Every [Matmul_t] node is an anchor: the executors have no unfused
   [X^T x p] path, so the floor candidate C1 (fuse just the transpose
   product, over a separately materialised right-hand side) is always
   available.  From the anchor we grow the maximal Equation 1 chain —
   absorb the inner [X %*% y] (same [X] node, by identity) and its
   optional element-wise weighting, then climb through scalar scalings /
   negations and an additive [beta * z] tail — but only across nodes
   with exactly one consumer: a node referenced anywhere else is a
   materialisation point (Boehm et al. 2018) and cuts the chain.  Each
   cut point of the maximal chain yields a candidate (the valid
   prefixes, cf. {!Fusion.Pattern.partials}); candidates are priced as
   one fused call plus separate operators for whatever they leave
   uncovered, plus a per-operator bookkeeping charge, and the cheapest
   wins (ties break toward the larger group). *)

open Ir

type factor = F_neg | F_scalar of node

type graph = {
  gr_g : node;  (** sparse operand: the adjacency (fused) or S (floor) *)
  gr_h : node;  (** dense embedding *)
  gr_semiring : string;
  gr_inst : Fusion.Fusedmm.instantiation;
}

type body =
  | Direct of node
  | Chain of { y : node; v : node option }
  | Fused_graph of graph

type candidate = {
  c_root : node;  (** the node whose value the fused call produces *)
  c_body : body;
  c_alpha : factor list;  (** innermost first; empty = 1.0 *)
  c_beta_z : (node option * node) option;  (** (scalar factor, z) *)
  c_desc : Fusion.Pattern_family.descriptor;  (** what the trace will show *)
  c_absorbed : node list;  (** interior nodes covered by the call *)
  c_kernels_ms : float;
  c_ops : int;  (** operators issued for the whole chain region *)
  c_total_ms : float;
}

type group = {
  g_anchor : node;
  g_x : node;
  g_chosen : candidate;
  g_rejected : candidate list;
}

let is_vec n = match n.ty with Vector _ -> true | _ -> false

(* The maximal chain around one anchor. *)
type chain = {
  anchor : node;
  x : node;
  chain_body : body option;  (* Some = inner absorbable as Chain *)
  direct_p : node;
  inner_absorbed : node list;
  climb : (node * factor) list;  (* bottom-up: node reached, factor applied *)
  beta : (node * node option * node * node list) option;
      (* (Add node, scalar factor, z, absorbed) *)
}

let discover ~uses ~parent t =
  let x, p =
    match t.args with [ x; p ] -> (x, p) | _ -> invalid_arg "matmul_t arity"
  in
  let use_count n = Option.value ~default:0 (Hashtbl.find_opt uses n.id) in
  let chain_body, inner_absorbed =
    match (p.op, p.args) with
    | Matmul, [ x'; y ] when x' == x && use_count p = 1 ->
        (Some (Chain { y; v = None }), [ p ])
    | Bin Mul, [ a; b ] when use_count p = 1 -> (
        match ((a.op, a.args), (b.op, b.args)) with
        | (Matmul, [ x'; y ]), _ when x' == x && use_count a = 1 && is_vec b ->
            (Some (Chain { y; v = Some b }), [ p; a ])
        | _, (Matmul, [ x'; y ]) when x' == x && use_count b = 1 && is_vec a ->
            (Some (Chain { y; v = Some a }), [ p; b ])
        | _ -> (None, []))
    | _ -> (None, [])
  in
  let rec collect cur acc =
    match Hashtbl.find_opt parent cur.id with
    | None -> (List.rev acc, None)
    | Some c -> (
        match (c.op, c.args) with
        | Neg, [ _ ] -> collect c ((c, F_neg) :: acc)
        | Bin Mul, [ a; b ] ->
            let other = if a == cur then b else a in
            if other.ty = Scalar then collect c ((c, F_scalar other) :: acc)
            else (List.rev acc, None)
        | Bin Add, [ a; b ] -> (
            let other = if a == cur then b else a in
            match (other.op, other.args) with
            | Bin Mul, [ s; z ]
              when use_count other = 1 && s.ty = Scalar && is_vec z ->
                (List.rev acc, Some (c, Some s, z, [ other ]))
            | _ when is_vec other -> (List.rev acc, Some (c, None, other, []))
            | _ -> (List.rev acc, None))
        | _ -> (List.rev acc, None))
  in
  let climb, beta = collect t [] in
  { anchor = t; x; chain_body; direct_p = p; inner_absorbed; climb; beta }

let candidates ctx ~mat_of ch =
  let mat = mat_of ch.x in
  let bodies =
    match ch.chain_body with
    | Some body -> [ (body, ch.inner_absorbed); (Direct ch.direct_p, []) ]
    | None -> [ (Direct ch.direct_p, []) ]
  in
  (* climb prefixes: level k covers the first k climbed nodes *)
  let rec prefixes acc pre = function
    | [] -> List.rev (pre :: acc)
    | step :: rest -> prefixes (pre :: acc) (pre @ [ step ]) rest
  in
  let levels = prefixes [] [] ch.climb in
  let full_cover =
    ch.anchor :: ch.inner_absorbed
    @ List.map fst ch.climb
    @ (match ch.beta with Some (add, _, _, abs) -> add :: abs | None -> [])
  in
  let mk_candidate (body, inner_abs) level with_beta =
    let climbed = List.map fst level in
    let root, beta_abs, beta_z =
      match (with_beta, ch.beta) with
      | true, Some (add, s, z, abs) -> (add, add :: abs, Some (s, z))
      | _ ->
          let root =
            match List.rev climbed with top :: _ -> top | [] -> ch.anchor
          in
          (root, [], None)
    in
    let below_root = if root == ch.anchor then [] else ch.anchor :: [] in
    let absorbed =
      inner_abs @ below_root
      @ List.filter (fun n -> not (n == root)) climbed
      @ List.filter (fun n -> not (n == root)) beta_abs
    in
    let chainlike, with_v =
      match body with
      | Chain { v; _ } -> (true, v <> None)
      | Direct _ -> (false, false)
      | Fused_graph _ -> assert false (* graph bodies never reach here *)
    in
    let inst =
      if chainlike then
        Fusion.Pattern.classify_shape
          {
            first_multiply = true;
            weighted = with_v;
            additive_tail = beta_z <> None;
          }
      else Fusion.Pattern.Xt_y
    in
    let kernel = Cost.fused_ms ctx mat inst in
    (* Direct body with an absorbed beta tail runs the epilogue axpy as a
       second operator ([Interp.exec_group]'s Direct path). *)
    let s = mat.Cost.shape in
    let extra_axpy =
      if (not chainlike) && beta_z <> None then
        [ Cost.vec_ms ctx ~n:s.Cost.cols ~reads:2 ~writes:1 ~flops:(2 * s.Cost.cols) ]
      else []
    in
    let covered = root :: absorbed in
    let separate =
      List.filter (fun n -> not (List.memq n covered)) full_cover
    in
    let sep_ms =
      List.fold_left (fun acc n -> acc +. Cost.op_ms ctx n ~mat_of) 0.0 separate
    in
    let ops =
      1 + List.length extra_axpy
      + List.length (List.filter Cost.is_operator separate)
    in
    let kernels_ms = kernel +. List.fold_left ( +. ) 0.0 extra_axpy +. sep_ms in
    {
      c_root = root;
      c_body = body;
      c_alpha = List.map snd level;
      c_beta_z = beta_z;
      c_desc = Fusion.Pattern.descriptor inst;
      c_absorbed = absorbed;
      c_kernels_ms = kernels_ms;
      c_ops = ops;
      c_total_ms = kernels_ms +. (ctx.Cost.overhead_ms *. float_of_int ops);
    }
  in
  let with_beta_levels =
    match ch.beta with
    | Some _ ->
        (* the beta tail extends only the full climb *)
        [ (List.nth levels (List.length levels - 1), true) ]
    | None -> []
  in
  let plain = List.map (fun l -> (l, false)) levels in
  List.concat_map
    (fun bodyspec ->
      List.map (fun (l, wb) -> mk_candidate bodyspec l wb) (plain @ with_beta_levels))
    bodies

(* --- graph anchors (the fusedmm family) -----------------------------------

   Every [Spmm] node is an anchor.  When its sparse operand is an
   exclusively-consumed same-semiring [Sddmm] over the same embedding
   node, the full SDDMM ⊕ SpMM chain is a candidate beside the
   aggregation-only floor (which then pays the SDDMM as a separate
   operator); otherwise the floor is the only candidate — the family
   analogue of [Pattern.partials]. *)
let graph_candidates ctx ~uses ~mat_of (n : node) =
  match (n.op, n.args) with
  | Spmm sr, [ s; h ] ->
      let d = match h.ty with Matrix_ref { cols; _ } -> cols | _ -> 0 in
      let use_count x = Option.value ~default:0 (Hashtbl.find_opt uses x.id) in
      let fusable =
        match (s.op, s.args) with
        | Sddmm sr', [ g; h' ] when sr' = sr && h' == h && use_count s = 1 ->
            Some g
        | _ -> None
      in
      let candidate ~g_node ~inst ~absorbed ~separate =
        let kernel = Cost.fusedmm_ms ctx (mat_of g_node) ~d inst in
        let sep_ms =
          List.fold_left
            (fun acc x -> acc +. Cost.op_ms ctx x ~mat_of)
            0.0 separate
        in
        let ops = 1 + List.length (List.filter Cost.is_operator separate) in
        let kernels_ms = kernel +. sep_ms in
        {
          c_root = n;
          c_body =
            Fused_graph
              { gr_g = g_node; gr_h = h; gr_semiring = sr; gr_inst = inst };
          c_alpha = [];
          c_beta_z = None;
          c_desc = Fusion.Fusedmm.descriptor ~semiring:sr inst;
          c_absorbed = absorbed;
          c_kernels_ms = kernels_ms;
          c_ops = ops;
          c_total_ms = kernels_ms +. (ctx.Cost.overhead_ms *. float_of_int ops);
        }
      in
      let x, cands =
        match fusable with
        | Some g ->
            ( g,
              [
                candidate ~g_node:g ~inst:Fusion.Fusedmm.Sddmm_spmm
                  ~absorbed:[ s ] ~separate:[];
                candidate ~g_node:s ~inst:Fusion.Fusedmm.Spmm ~absorbed:[]
                  ~separate:[ s ];
              ] )
        | None ->
            ( s,
              [
                candidate ~g_node:s ~inst:Fusion.Fusedmm.Spmm ~absorbed:[]
                  ~separate:[];
              ] )
      in
      Some (x, cands)
  | _ -> None

let choose cands =
  List.fold_left
    (fun best c ->
      match best with
      | None -> Some c
      | Some b ->
          if
            c.c_total_ms < b.c_total_ms -. 1e-12
            || (Float.abs (c.c_total_ms -. b.c_total_ms) <= 1e-12
                && List.length c.c_absorbed > List.length b.c_absorbed)
          then Some c
          else best)
    None cands

let select ctx ~mat_of steps =
  Kf_obs.Trace.with_span "plan.fuse" @@ fun () ->
  let uses, parent = sole_parents steps in
  let groups = Hashtbl.create 16 in
  let ordered = ref [] in
  List.iter
    (fun n ->
      match n.op with
      | Matmul_t ->
          let ch = discover ~uses ~parent n in
          let cands = candidates ctx ~mat_of ch in
          (match choose cands with
          | Some chosen ->
              let g =
                {
                  g_anchor = n;
                  g_x = ch.x;
                  g_chosen = chosen;
                  g_rejected =
                    List.filter (fun c -> not (c == chosen)) cands;
                }
              in
              Hashtbl.replace groups chosen.c_root.id g;
              ordered := g :: !ordered
          | None -> ())
      | Spmm _ -> (
          match graph_candidates ctx ~uses ~mat_of n with
          | Some (x, cands) -> (
              match choose cands with
              | Some chosen ->
                  let g =
                    {
                      g_anchor = n;
                      g_x = x;
                      g_chosen = chosen;
                      g_rejected =
                        List.filter (fun c -> not (c == chosen)) cands;
                    }
                  in
                  Hashtbl.replace groups chosen.c_root.id g;
                  ordered := g :: !ordered
              | None -> ())
          | None -> ())
      | _ -> ())
    (reachable steps);
  (groups, List.rev !ordered)
