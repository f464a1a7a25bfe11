open Matrix

type weights = {
  vecs : Vec.t array;
  cols : int;
  extra : Kf_resil.Ckpt.payload;
}

type train_cfg = {
  engine : Fusion.Executor.engine;
  max_iterations : int option;
  checkpoint : (string * int) option;
  ckpt_meta : Kf_resil.Ckpt.payload;
  resume : string option;
}

let default_cfg =
  {
    engine = Fusion.Executor.Fused;
    max_iterations = None;
    checkpoint = None;
    ckpt_meta = [];
    resume = None;
  }

type problem = {
  device : Gpu_sim.Device.t;
  input : Fusion.Executor.input;
  raw : Vec.t;
  seed : int;
}

type report = {
  label : string;
  fields : (string * Kf_obs.Json.t) list;
  weights : weights;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

type scorer = {
  s_vecs : Vec.t array;
  s_finish : Vec.t array -> Vec.t;
}

module type S = sig
  val name : string

  val display_name : string

  val train : cfg:train_cfg -> problem -> report

  val scorer : weights -> scorer
end

let flat_weights w = Array.concat (Array.to_list w.vecs)

let weights_checksum w = Kf_resil.Ckpt.checksum_floats (flat_weights w)

(* Resident footprint of a loaded model, as the serving registry's byte
   budget counts it: the weight vectors dominate (8 bytes per float);
   [extra] fields are charged by their serialised size, a faithful
   stand-in for the strings/scalars they decode to. *)
let weights_bytes w =
  let vecs =
    Array.fold_left (fun a v -> a + (8 * Array.length v)) 0 w.vecs
  in
  let extra =
    List.fold_left
      (fun a (name, f) ->
        a + String.length name
        +
        match f with
        | Kf_resil.Ckpt.Int _ | Kf_resil.Ckpt.Float _ -> 8
        | Kf_resil.Ckpt.Str s -> String.length s
        | Kf_resil.Ckpt.Floats v -> 8 * Array.length v
        | Kf_resil.Ckpt.Ints v -> 8 * Array.length v)
      0 w.extra
  in
  vecs + extra

(* --- model (de)serialisation ------------------------------------------- *)

(* A model file is an ordinary [kf-ckpt/1] checkpoint whose algorithm
   field is the registry name; the weight vectors travel as one
   [model.vec<k>] field each so restoration is bit-exact (floats are
   stored as IEEE-754 bit patterns by [Kf_resil.Ckpt]). *)

let vec_field k = Printf.sprintf "model.vec%d" k

let weights_payload w =
  [
    ("model.cols", Kf_resil.Ckpt.Int w.cols);
    ("model.vecs", Kf_resil.Ckpt.Int (Array.length w.vecs));
  ]
  @ Array.to_list
      (Array.mapi (fun k v -> (vec_field k, Kf_resil.Ckpt.Floats v)) w.vecs)
  @ w.extra

let reserved name =
  name = "model.cols" || name = "model.vecs"
  || (String.length name > 9 && String.sub name 0 9 = "model.vec")

let weights_of_payload p =
  let cols = Kf_resil.Ckpt.get_int p "model.cols" in
  let k = Kf_resil.Ckpt.get_int p "model.vecs" in
  if k < 1 then
    raise (Kf_resil.Ckpt.Corrupt "model.vecs: need at least one weight vector");
  let vecs = Array.init k (fun i -> Kf_resil.Ckpt.get_floats p (vec_field i)) in
  Array.iter
    (fun v ->
      if Array.length v <> cols then
        raise
          (Kf_resil.Ckpt.Corrupt
             (Printf.sprintf
                "model weight vector has %d elements, model.cols says %d"
                (Array.length v) cols)))
    vecs;
  let extra =
    List.filter
      (fun (name, _) ->
        (not (reserved name))
        && String.length name > 6
        && String.sub name 0 6 = "model.")
      p
  in
  { vecs; cols; extra }

(* --- scoring ------------------------------------------------------------ *)

let matvec input y =
  match input with
  | Fusion.Executor.Sparse x -> Blas.csrmv x y
  | Fusion.Executor.Dense x -> Blas.gemv x y

let predict_with sc input = sc.s_finish (Array.map (matvec input) sc.s_vecs)

(* Batched predict as the executor sees it: one [X x y] launch per weight
   vector (a single launch for every algorithm except multinomial, which
   needs one per class), with the link applied as a host-side epilogue.
   All the fusion economics of serving live here: scoring a coalesced
   block of requests costs the same number of launches as scoring one. *)
let predict_exec_with sc ?engine ?pool device input =
  let ms = ref 0.0 in
  let margins =
    Array.map
      (fun v ->
        let r = Fusion.Executor.x_y ?engine ?pool device input v in
        ms := !ms +. r.Fusion.Executor.time_ms;
        r.Fusion.Executor.w)
      sc.s_vecs
  in
  (sc.s_finish margins, !ms)

let predict (module A : S) w input = predict_with (A.scorer w) input

let predict_exec (module A : S) ?engine ?pool device w input =
  predict_exec_with (A.scorer w) ?engine ?pool device input
