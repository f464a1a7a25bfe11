open Matrix

type result = {
  ranks : Vec.t;
  iterations : int;
  delta : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

(* Random-walk normalisation: scale each row's stored values to sum to
   one (rows with no edges are left as-is and contribute nothing). *)
let normalize_rows (g : Csr.t) =
  let values = Array.copy g.values in
  for r = 0 to g.rows - 1 do
    let s = g.row_off.(r) and e = g.row_off.(r + 1) in
    let sum = ref 0.0 in
    for k = s to e - 1 do
      sum := !sum +. values.(k)
    done;
    if !sum <> 0.0 then
      for k = s to e - 1 do
        values.(k) <- values.(k) /. !sum
      done
  done;
  Csr.create ~rows:g.rows ~cols:g.cols ~values ~col_idx:g.col_idx
    ~row_off:g.row_off

let run ?engine ?(iterations = 50) ?(damping = 0.85) ?(tolerance = 1e-9)
    ?checkpoint ?ckpt_meta ?resume device (g : Csr.t) =
  if g.rows <> g.cols then
    invalid_arg "Pagerank.run: adjacency matrix must be square";
  if damping < 0.0 || damping >= 1.0 then
    invalid_arg "Pagerank.run: damping must be in [0, 1)";
  let session =
    Session.create ?engine ?checkpoint ?ckpt_meta device ~algorithm:"PageRank"
  in
  Kf_obs.Trace.with_span "fit.PageRank" @@ fun () ->
  let n = g.rows in
  (* the propagation matrix streams through the family's SpMM floor
     with the rank vector as a one-column dense embedding *)
  let w = normalize_rows g in
  let r = Dense.create n 1 in
  let uniform = if n > 0 then 1.0 /. float_of_int n else 0.0 in
  Array.fill r.data 0 n uniform;
  let delta = ref infinity in
  let i = ref 0 in
  ignore
    (Session.state ?resume session
       Session.State.
         [
           buffer "pagerank.r" r.data;
           float "pagerank.delta" delta;
           int "pagerank.i" i;
         ]);
  let teleport = (1.0 -. damping) *. uniform in
  while !i < iterations && !delta > tolerance do
    Session.iteration session (fun () ->
        let z = Session.spmm ~semiring:Fusion.Semiring.plain session w r in
        let dmax = ref 0.0 in
        for k = 0 to n - 1 do
          let next = teleport +. (damping *. z.data.(k)) in
          dmax := Float.max !dmax (Float.abs (next -. r.data.(k)));
          r.data.(k) <- next
        done;
        delta := !dmax;
        incr i)
  done;
  {
    ranks = Array.sub r.data 0 n;
    iterations = !i;
    delta = !delta;
    gpu_ms = Session.gpu_ms session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

(* --- unified algorithm API ------------------------------------------------ *)

module Algo = struct
  let name = "pagerank"

  let display_name = "PageRank"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    let g =
      Dataset.adjacency (Rng.create p.seed)
        ~nodes:(Fusion.Executor.rows p.input)
        ~out_degree:8
    in
    let r =
      run ~engine:cfg.engine ?iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device g
    in
    {
      Algorithm.label =
        Printf.sprintf "%d iterations, delta %g" r.iterations r.delta;
      fields =
        [
          ("iterations", Kf_obs.Json.Int r.iterations);
          ("delta", Kf_obs.Json.Float r.delta);
        ];
      weights =
        {
          Algorithm.vecs = [| r.ranks |];
          cols = Array.length r.ranks;
          extra = [];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  let scorer (w : Algorithm.weights) =
    { Algorithm.s_vecs = [| w.vecs.(0) |]; s_finish = (fun m -> m.(0)) }
end
