open Matrix

type result = {
  weights : Vec.t;
  iterations : int;
  residual_norm : float;
  gpu_ms : float;
  pattern_ms : float;
  launches : int;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

let fit ?engine ?(max_iterations = 100) ?(tolerance = 1e-6) ?(eps = 0.001)
    ?checkpoint ?ckpt_meta ?resume device input ~targets =
  if Array.length targets <> Fusion.Executor.rows input then
    invalid_arg "Linreg_cg.fit: one target per row required";
  let session =
    Session.create ?engine ?checkpoint ?ckpt_meta device ~algorithm:"LR"
  in
  Kf_obs.Trace.with_span "fit.LR" @@ fun () ->
  let n = Fusion.Executor.cols input in
  (* [w], [r], [p] and [q] are the solve's only vectors: every
     iteration overwrites them in place. *)
  let w = Vec.create n and r = Vec.create n and p = Vec.create n in
  let q = Vec.create n in
  let nr2 = ref 0.0 and nr2_target = ref 0.0 and i = ref 0 in
  let resumed =
    Session.state ?resume session
      Session.State.
        [
          buffer "lr.w" w;
          buffer "lr.r" r;
          buffer "lr.p" p;
          float "lr.nr2" nr2;
          (* derived before the loop, so it must be checkpointed, not
             recomputed: resuming re-derives nothing *)
          float "lr.nr2_target" nr2_target;
          int "lr.i" i;
        ]
  in
  if not resumed then begin
    (* r = -(X^T t);  p = -r *)
    ignore (Session.xt_y session ~into:r input targets ~alpha:(-1.0));
    ignore (Session.scal session ~into:p (-1.0) r);
    nr2 := Session.dot session r r;
    nr2_target := !nr2 *. tolerance *. tolerance
  end;
  while !i < max_iterations && !nr2 > !nr2_target do
    Session.iteration session (fun () ->
        (* q = X^T (X p) + eps * p — the pattern of Table 1 row 4; an
           unregularised solve (eps = 0) degrades to plain X^T(Xy). *)
        let beta_z = if eps = 0.0 then None else Some (eps, p) in
        ignore
          (Session.pattern session ~into:q input ~y:p ?beta_z ~alpha:1.0 ());
        let alpha = !nr2 /. Session.dot session p q in
        ignore (Session.axpy session ~into:w alpha p w);
        let old_nr2 = !nr2 in
        ignore (Session.axpy session ~into:r alpha q r);
        nr2 := Session.dot session r r;
        let beta = !nr2 /. old_nr2 in
        (* p = -r + beta * p *)
        ignore (Session.scal session ~into:p beta p);
        ignore (Session.axpy session ~into:p (-1.0) r p);
        incr i)
  done;
  {
    weights = w;
    iterations = !i;
    residual_norm = !nr2;
    gpu_ms = Session.gpu_ms session;
    pattern_ms = Session.pattern_ms session;
    launches = Session.launches session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

type cpu_result = {
  cpu_weights : Vec.t;
  cpu_iterations : int;
  buckets : Blas.time_buckets;
}

let fit_cpu ?(max_iterations = 100) ?(tolerance = 1e-6) ?(eps = 0.001) input
    ~targets =
  if Array.length targets <> Fusion.Executor.rows input then
    invalid_arg "Linreg_cg.fit_cpu: one target per row required";
  let buckets = Blas.fresh_buckets () in
  let xt_t () =
    match input with
    | Fusion.Executor.Sparse x -> Blas.csrmv_t x targets
    | Fusion.Executor.Dense x -> Blas.gemv_t x targets
  in
  let pattern_q p =
    let beta = if eps = 0.0 then None else Some eps in
    let z = if eps = 0.0 then None else Some p in
    match input with
    | Fusion.Executor.Sparse x -> Blas.pattern_sparse ~alpha:1.0 x p ?beta ?z ()
    | Fusion.Executor.Dense x -> Blas.pattern_dense ~alpha:1.0 x p ?beta ?z ()
  in
  let n = Fusion.Executor.cols input in
  let r = Blas.timed buckets Blas.Pattern_op xt_t in
  Vec.scal (-1.0) r;
  let p = Blas.timed buckets Blas.Blas1_op (fun () -> Vec.scale (-1.0) r) in
  let nr2 = ref (Blas.timed buckets Blas.Blas1_op (fun () -> Vec.dot r r)) in
  let nr2_target = !nr2 *. tolerance *. tolerance in
  let w = Vec.create n in
  let p = ref p in
  let i = ref 0 in
  while !i < max_iterations && !nr2 > nr2_target do
    let q = Blas.timed buckets Blas.Pattern_op (fun () -> pattern_q !p) in
    let pq = Blas.timed buckets Blas.Blas1_op (fun () -> Vec.dot !p q) in
    let alpha = !nr2 /. pq in
    Blas.timed buckets Blas.Blas1_op (fun () ->
        Vec.axpy alpha !p w;
        Vec.axpy alpha q r);
    let old_nr2 = !nr2 in
    nr2 := Blas.timed buckets Blas.Blas1_op (fun () -> Vec.dot r r);
    let beta = !nr2 /. old_nr2 in
    Blas.timed buckets Blas.Blas1_op (fun () ->
        let next = Vec.scale beta !p in
        Vec.axpy (-1.0) r next;
        p := next);
    incr i
  done;
  { cpu_weights = w; cpu_iterations = !i; buckets }

(* --- unified algorithm API ------------------------------------------------ *)

let predict w input = Algorithm.matvec input w

module Algo = struct
  let name = "lr"

  let display_name = "linear regression CG"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    let r =
      fit ~engine:cfg.engine ?max_iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device p.input ~targets:p.raw
    in
    {
      Algorithm.label =
        Printf.sprintf "%d iterations, residual %g" r.iterations
          r.residual_norm;
      fields =
        [
          ("iterations", Kf_obs.Json.Int r.iterations);
          ("residual_norm", Kf_obs.Json.Float r.residual_norm);
        ];
      weights =
        {
          Algorithm.vecs = [| r.weights |];
          cols = Array.length r.weights;
          extra = [];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  let scorer (w : Algorithm.weights) =
    { Algorithm.s_vecs = [| w.vecs.(0) |]; s_finish = (fun m -> m.(0)) }
end
