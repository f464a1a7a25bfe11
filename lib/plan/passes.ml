(* Rewrite passes over the lowered DAG.

   Constant folding and CSE happen during lowering (folding at node
   construction, CSE by hash-consing), so the passes that remain are the
   two that need the whole graph:

   - {!hoist_invariants} — per [while] loop, the non-trivial nodes its
     body references that do not depend on any of the loop's phis.
     These are exactly the computations the reference interpreter
     re-resolves every iteration (the bug this subsystem fixes: the
     [t(X)] shape resolution, the [ones] vector behind every [sum]);
     under the plan executor their cached values survive iterations, so
     the pass only *reports* the hoist set — the hoisting itself is
     realised by the cache, which also means a loop that never runs
     never pays for its hoisted nodes.

   - {!push_transposes} — rewrites [Matmul (Transpose X, y)] into the
     single [Matmul_t (X, y)] operator, the form the executors take
     ([X] stays untransposed in memory; no transpose is ever
     materialised).  Runs after hoist reporting so the explain output
     can still name [t(X)] as what was hoisted. *)

open Ir

type hoist = { h_loop : int; h_nodes : node list }

let nontrivial n =
  match n.op with
  | Const _ | Input_named _ | Input_pos _ | Var_at _ -> false
  | Ones | Zero_vec | Neg | Bin _ | Dot | Matmul | Matmul_t | Transpose
  | Sddmm _ | Spmm _ ->
      true

let hoist_invariants steps =
  Kf_obs.Trace.with_span "plan.pass.hoist" @@ fun () ->
  let flush_of, _ = flush_sets steps in
  let flushes n = Option.value ~default:[] (Hashtbl.find_opt flush_of n.id) in
  let result = ref [] in
  let rec walk = function
    | Bind _ | Write _ -> ()
    | If_ { then_; else_; _ } ->
        List.iter walk then_;
        List.iter walk else_
    | While_ { loop_id; cond; body; _ } ->
        let seen = Hashtbl.create 32 in
        let acc = ref [] in
        let rec visit n =
          if not (Hashtbl.mem seen n.id) then begin
            Hashtbl.add seen n.id ();
            List.iter visit n.args;
            acc := n :: !acc
          end
        in
        visit cond;
        List.iter (iter_step_roots visit) body;
        let inv =
          List.filter
            (fun n -> nontrivial n && not (List.mem loop_id (flushes n)))
            (List.rev !acc)
        in
        result := { h_loop = loop_id; h_nodes = inv } :: !result;
        List.iter walk body
  in
  List.iter walk steps;
  List.rev !result

let push_transposes steps =
  Kf_obs.Trace.with_span "plan.pass.pushdown" @@ fun () ->
  let count = ref 0 in
  List.iter
    (fun n ->
      match (n.op, n.args) with
      | Matmul, [ a; b ] -> (
          match (a.op, a.args) with
          | Transpose, [ m ] ->
              n.op <- Matmul_t;
              n.args <- [ m; b ];
              incr count
          | _ -> ())
      | _ -> ())
    (reachable steps);
  !count
