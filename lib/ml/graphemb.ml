open Matrix

type result = {
  embedding : Dense.t;
  iterations : int;
  delta : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

(* Force2vec-style embedding training: each iteration pulls every node
   toward the sigmoid-weighted average of its neighbours' embeddings.
   The whole per-iteration force computation is one fused
   SDDMM ⊕ SpMM chain (sigmoid semiring): the sampled dot
   [<H_i, H_j>] measures how aligned an edge's endpoints already are,
   the logistic squashes it into an attraction weight, and the SpMM
   aggregates the weighted neighbour rows — all without materialising
   the nodes x nodes attraction matrix. *)
let run ?engine ?(iterations = 10) ?(lr = 0.5) ?(tolerance = 0.0) ?checkpoint
    ?ckpt_meta ?resume device (g : Csr.t) (h0 : Dense.t) =
  if g.rows <> g.cols then
    invalid_arg "Graphemb.run: adjacency matrix must be square";
  if h0.rows <> g.rows then
    invalid_arg "Graphemb.run: the embedding must have one row per node";
  if lr <= 0.0 || lr > 1.0 then
    invalid_arg "Graphemb.run: lr must be in (0, 1]";
  let session =
    Session.create ?engine ?checkpoint ?ckpt_meta device ~algorithm:"GraphEmb"
  in
  Kf_obs.Trace.with_span "fit.GraphEmb" @@ fun () ->
  let n = g.rows and d = h0.cols in
  let h = Dense.create n d in
  Array.blit h0.data 0 h.data 0 (n * d);
  let delta = ref infinity in
  let i = ref 0 in
  ignore
    (Session.state ?resume session
       Session.State.
         [
           buffer "graphemb.h" h.data;
           float "graphemb.delta" delta;
           int "graphemb.i" i;
         ]);
  while !i < iterations && !delta > tolerance do
    Session.iteration session (fun () ->
        let z =
          Session.fusedmm ~semiring:Fusion.Semiring.sigmoid session
            Fusion.Fusedmm.Sddmm_spmm g h
        in
        (* convex step toward the attraction average; isolated nodes
           keep their embedding *)
        let dmax = ref 0.0 in
        for r = 0 to n - 1 do
          let deg = g.row_off.(r + 1) - g.row_off.(r) in
          if deg > 0 then begin
            let inv = lr /. float_of_int deg in
            let base = r * d in
            for c = 0 to d - 1 do
              let cur = h.data.(base + c) in
              let next = ((1.0 -. lr) *. cur) +. (inv *. z.data.(base + c)) in
              (* [Float.max !dmax step] written out for two non-negative
                 operands: a call across modules would box [step] on
                 every element.  A NaN still sticks. *)
              let step = Float.abs (next -. cur) in
              if step > !dmax || step <> step then dmax := step;
              h.data.(base + c) <- next
            done
          end
        done;
        delta := !dmax;
        incr i)
  done;
  {
    embedding = h;
    iterations = !i;
    delta = !delta;
    gpu_ms = Session.gpu_ms session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

(* --- unified algorithm API ------------------------------------------------ *)

let default_dim = 8

let embedding_cols (h : Dense.t) =
  Array.init h.cols (fun c ->
      Array.init h.rows (fun r -> h.data.((r * h.cols) + c)))

module Algo = struct
  let name = "graphemb"

  let display_name = "GraphEmb"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    (* Like HITS: the regression features only size the graph — one
       node per feature row, built from the same generator seed. *)
    let rng = Rng.create p.seed in
    let nodes = Fusion.Executor.rows p.input in
    let g = Dataset.adjacency rng ~nodes ~out_degree:8 in
    let h0 = Gen.dense rng ~rows:nodes ~cols:default_dim in
    let r =
      run ~engine:cfg.engine ?iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device g h0
    in
    {
      Algorithm.label =
        Printf.sprintf "%d iterations, dim %d, delta %g" r.iterations
          r.embedding.cols r.delta;
      fields =
        [
          ("iterations", Kf_obs.Json.Int r.iterations);
          ("dim", Kf_obs.Json.Int r.embedding.cols);
          ("delta", Kf_obs.Json.Float r.delta);
        ];
      weights =
        {
          Algorithm.vecs = embedding_cols r.embedding;
          cols = nodes;
          extra = [ ("model.dim", Kf_resil.Ckpt.Int r.embedding.cols) ];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  let scorer (w : Algorithm.weights) =
    {
      Algorithm.s_vecs = w.vecs;
      s_finish =
        (fun margins ->
          (* mean over embedding dimensions: one score per input row *)
          let k = Array.length margins in
          let n = Array.length margins.(0) in
          Array.init n (fun r ->
              let acc = ref 0.0 in
              Array.iter (fun m -> acc := !acc +. m.(r)) margins;
              !acc /. float_of_int k));
    }
end
