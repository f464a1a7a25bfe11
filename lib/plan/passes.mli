(** Rewrite passes over the lowered DAG.

    Constant folding and CSE happen during lowering (folding at node
    construction, CSE by hash-consing), so the passes that remain are
    the two that need the whole graph. *)

type hoist = { h_loop : int; h_nodes : Ir.node list }

val hoist_invariants : Ir.step list -> hoist list
(** Per [while] loop, the non-trivial nodes its body references that do
    not depend on any of the loop's phis — exactly the computations the
    reference interpreter re-resolves every iteration.  The pass only
    {e reports} the hoist set: the hoisting itself is realised by the
    value cache (invariant nodes have empty flush sets), which also
    means a loop that never runs never pays for its hoisted nodes. *)

val push_transposes : Ir.step list -> int
(** Rewrite every reachable [Matmul (Transpose X, y)] into the single
    [Matmul_t (X, y)] operator the executors take ([X] stays
    untransposed in memory; no transpose is ever materialised).
    Returns the number of rewrites.  Runs after hoist reporting so the
    explain output can still name [t(X)] as what was hoisted. *)
