(** Graph-embedding training through the fused SDDMM ⊕ SpMM chain (the
    ["fusedmm"] pattern family, sigmoid semiring) — the force2vec-style
    workload of the FusedMM line of work (PAPERS.md).

    Each iteration computes one fused
    [Z_i = sum_j G_ij * sigmoid(<H_i,H_j>) * H_j] without materialising
    the nodes x nodes attraction matrix, then takes a convex step of
    size [lr] from every non-isolated node's embedding toward its
    degree-normalised attraction average.  [delta] is the largest
    absolute per-coordinate move of the last iteration. *)

open Matrix

type result = {
  embedding : Dense.t;  (** nodes x dim *)
  iterations : int;
  delta : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

val run :
  ?engine:Fusion.Executor.engine ->
  ?iterations:int ->
  ?lr:float ->
  ?tolerance:float ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  ?resume:string ->
  Gpu_sim.Device.t ->
  Csr.t ->
  Dense.t ->
  result
(** [run device g h0] trains from the initial embedding [h0] (one row
    per node of the square adjacency [g]).  Defaults: 10 iterations,
    [lr = 0.5], [tolerance = 0.0] (run all iterations).  Raises
    [Invalid_argument] on shape mismatches or [lr] outside (0, 1]. *)

val default_dim : int
(** Embedding width used by the registry's [train] (8). *)

module Algo : Algorithm.S
