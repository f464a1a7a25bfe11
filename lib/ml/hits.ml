open Matrix

type result = {
  authorities : Vec.t;
  hubs : Vec.t;
  iterations : int;
  delta : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

let run ?engine ?(iterations = 50) ?(tolerance = 1e-9) ?checkpoint ?ckpt_meta
    ?resume device (adjacency : Csr.t) =
  if adjacency.rows <> adjacency.cols then
    invalid_arg "Hits.run: adjacency matrix must be square";
  let session =
    Session.create ?engine ?checkpoint ?ckpt_meta device ~algorithm:"HITS"
  in
  Kf_obs.Trace.with_span "fit.HITS" @@ fun () ->
  let input = Fusion.Executor.Sparse adjacency in
  let nodes = adjacency.rows in
  let a = ref (Vec.create nodes) in
  let delta = ref infinity in
  let i = ref 0 in
  let resumed =
    Session.state ?resume session
      Session.State.
        [ vec "hits.a" a; float "hits.delta" delta; int "hits.i" i ]
  in
  if not resumed then begin
    let h0 = Array.make nodes (1.0 /. sqrt (float_of_int nodes)) in
    (* first authority scores from the initial hubs: a = A^T h *)
    a := Session.xt_y session input h0 ~alpha:1.0;
    let norm = Session.nrm2 session !a in
    if norm > 0.0 then a := Session.scal session (1.0 /. norm) !a
  end;
  while !i < iterations && !delta > tolerance do
    Session.iteration session (fun () ->
        (* fused double step: a' = A^T (A a) *)
        let a' = Session.pattern session input ~y:!a ~alpha:1.0 () in
        let norm = Session.nrm2 session a' in
        let a' =
          if norm > 0.0 then Session.scal session (1.0 /. norm) a' else a'
        in
        delta := Vec.max_abs_diff a' !a;
        a := a';
        incr i)
  done;
  let hubs = Session.x_y session input !a in
  let hnorm = Session.nrm2 session hubs in
  let hubs =
    if hnorm > 0.0 then Session.scal session (1.0 /. hnorm) hubs else hubs
  in
  {
    authorities = !a;
    hubs;
    iterations = !i;
    delta = !delta;
    gpu_ms = Session.gpu_ms session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

(* --- unified algorithm API ------------------------------------------------ *)

let scores ~authorities input = Algorithm.matvec input authorities

module Algo = struct
  let name = "hits"

  let display_name = "HITS"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    (* HITS ignores the regression features: it scores a graph built
       from the same generator seed, with one node per feature row. *)
    let a =
      Dataset.adjacency (Rng.create p.seed)
        ~nodes:(Fusion.Executor.rows p.input)
        ~out_degree:8
    in
    let r =
      run ~engine:cfg.engine ?iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device a
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
          Algorithm.vecs = [| r.authorities |];
          cols = Array.length r.authorities;
          extra = [];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  let scorer (w : Algorithm.weights) =
    { Algorithm.s_vecs = [| w.vecs.(0) |]; s_finish = (fun m -> m.(0)) }
end
