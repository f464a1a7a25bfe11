(** PageRank-style propagation through the ["fusedmm"] family's SpMM
    floor (plain semiring): the rank vector travels as a one-column
    dense embedding, and each iteration is one
    [r' = (1 - damping)/n + damping * (W r)] step over the row-
    normalised adjacency [W] — the GCN/PageRank aggregation-only
    instantiation of the family. *)

open Matrix

type result = {
  ranks : Vec.t;  (** one rank per node *)
  iterations : int;
  delta : float;  (** largest absolute rank change of the last step *)
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

val normalize_rows : Csr.t -> Csr.t
(** Scale each row's stored values to sum to one (zero-sum rows are
    kept unchanged).  Structure is shared with the argument. *)

val run :
  ?engine:Fusion.Executor.engine ->
  ?iterations:int ->
  ?damping:float ->
  ?tolerance:float ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  ?resume:string ->
  Gpu_sim.Device.t ->
  Csr.t ->
  result
(** [run device g] iterates from the uniform distribution on the square
    adjacency [g].  Defaults: 50 iterations, [damping = 0.85],
    [tolerance = 1e-9].  Raises [Invalid_argument] for a non-square
    graph or damping outside [0, 1). *)

module Algo : Algorithm.S
