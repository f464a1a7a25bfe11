(** Hubs and Authorities (Kleinberg's HITS) on a directed graph.

    With adjacency matrix [A], the authority update is
    [a <- A^T (A a)] — the [X^T(Xy)] instantiation fused into a single
    launch — followed by normalisation; hub scores are recovered as
    [h = A a].  The initial iteration's [A^T h] is an [X^T y] product,
    matching HITS's two check marks in Table 1. *)

type result = {
  authorities : Matrix.Vec.t;
  hubs : Matrix.Vec.t;
  iterations : int;
  delta : float;  (** final change in the authority vector *)
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;  (** one entry per power iteration *)
}

val run :
  ?engine:Fusion.Executor.engine ->
  ?iterations:int ->
  ?tolerance:float ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  ?resume:string ->
  Gpu_sim.Device.t ->
  Matrix.Csr.t ->
  result
(** [run device adjacency] — defaults: [iterations = 50],
    [tolerance = 1e-9]. *)

val scores : authorities:Matrix.Vec.t -> Fusion.Executor.input -> Matrix.Vec.t
(** [scores ~authorities rows] — the hub score each query row would
    have: its adjacency pattern times the authority vector ([X x a]). *)

module Algo : Algorithm.S
(** Registry adapter ([name = "hits"]); a request row is an adjacency
    row over the graph's nodes and its score is the induced hub
    score. *)
