(** The uniform algorithm API.

    Every ML algorithm in this repository — however different its
    training loop — answers the same three questions through this
    signature: how to {e train} on a synthetic problem, how to {e score}
    a block of rows against trained weights, and how its weights
    (de)serialise to {!Kf_resil.Ckpt} fields.  The CLI and the serving
    layer dispatch through {!Registry} instead of matching on algorithm
    names, so adding an algorithm touches exactly one module plus the
    registry list. *)

(** Trained model weights in a representation every algorithm shares:
    one or more weight vectors of [cols] elements (one per class for
    multinomial; the authority vector for HITS) plus algorithm-specific
    [model.*] fields (e.g. the GLM family). *)
type weights = {
  vecs : Matrix.Vec.t array;
  cols : int;
  extra : Kf_resil.Ckpt.payload;
}

type train_cfg = {
  engine : Fusion.Executor.engine;
  max_iterations : int option;
      (** outer-iteration cap: CG iterations for LR, Newton steps for
          GLM/LogReg/SVM/multinomial, power iterations for HITS *)
  checkpoint : (string * int) option;  (** (path, every) *)
  ckpt_meta : Kf_resil.Ckpt.payload;
  resume : string option;
}

val default_cfg : train_cfg
(** [Fused] engine, no caps, no checkpointing. *)

(** A synthetic training problem as the CLI poses it: the feature
    matrix, the raw linear targets [X x truth] (each algorithm derives
    its own labels from them), and the generator seed (HITS uses it to
    build its adjacency graph). *)
type problem = {
  device : Gpu_sim.Device.t;
  input : Fusion.Executor.input;
  raw : Matrix.Vec.t;
  seed : int;
}

type report = {
  label : string;  (** one-line human summary, e.g. ["12 iterations, ..."] *)
  fields : (string * Kf_obs.Json.t) list;  (** algorithm-specific JSON *)
  weights : weights;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

(** How an algorithm scores: one matrix-vector product per element of
    [s_vecs], combined by [s_finish] (the link function / argmax). *)
type scorer = {
  s_vecs : Matrix.Vec.t array;
  s_finish : Matrix.Vec.t array -> Matrix.Vec.t;
}

module type S = sig
  val name : string
  (** Registry key, e.g. ["lr"]. *)

  val display_name : string

  val train : cfg:train_cfg -> problem -> report

  val scorer : weights -> scorer
end

val flat_weights : weights -> Matrix.Vec.t
(** All weight vectors concatenated — the checksum input. *)

val weights_checksum : weights -> string
(** FNV-1a 64 of {!flat_weights} as 16 hex digits — the generation
    fingerprint the CLI prints and hot-swap equality proofs compare. *)

val weights_bytes : weights -> int
(** Resident footprint as the serving registry's byte budget counts it:
    8 bytes per weight float plus the serialised size of [extra]. *)

val matvec : Fusion.Executor.input -> Matrix.Vec.t -> Matrix.Vec.t
(** [X x y] through the sequential reference BLAS — the building block
    the per-algorithm [predict] functions share. *)

val weights_payload : weights -> Kf_resil.Ckpt.payload
(** Serialise to [model.*] checkpoint fields. *)

val weights_of_payload : Kf_resil.Ckpt.payload -> weights
(** Inverse of {!weights_payload}; ignores non-[model.*] fields (so a
    payload may carry generator metadata alongside) and raises
    {!Kf_resil.Ckpt.Corrupt} on missing or inconsistent fields. *)

val predict : (module S) -> weights -> Fusion.Executor.input -> Matrix.Vec.t
(** Reference scoring through the sequential {!Matrix.Blas} kernels —
    one score per input row. *)

val predict_exec :
  (module S) ->
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  Gpu_sim.Device.t ->
  weights ->
  Fusion.Executor.input ->
  Matrix.Vec.t * float
(** Batched scoring through {!Fusion.Executor.x_y} on the chosen engine
    — one launch per weight vector regardless of how many rows the
    input block holds.  Returns [(scores, time_ms)] where [time_ms] is
    summed over the launches ({!Fusion.Executor.result.time_ms}
    semantics: simulated device time, or wall-clock for [Host]). *)

val predict_with : scorer -> Fusion.Executor.input -> Matrix.Vec.t

val predict_exec_with :
  scorer ->
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  Gpu_sim.Device.t ->
  Fusion.Executor.input ->
  Matrix.Vec.t * float
