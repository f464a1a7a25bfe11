open Matrix

type result = {
  weights : Vec.t;
  newton_iterations : int;
  cg_iterations : int;
  loss : float;
  accuracy : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

let sigmoid z = 1.0 /. (1.0 +. exp (-.z))

let loss_of ~lambda ~labels margins w =
  let acc = ref (0.5 *. lambda *. Vec.dot w w) in
  Array.iteri
    (fun i margin ->
      let yz = labels.(i) *. margin in
      (* log(1 + exp(-yz)) computed stably *)
      let l =
        if yz > 0.0 then log1p (exp (-.yz)) else -.yz +. log1p (exp yz)
      in
      acc := !acc +. l)
    margins;
  !acc

(* Trust-region CG (Steihaug): solve H s = -g within ||s|| <= delta, where
   H v = X^T (d .* (X v)) + lambda v runs as a single fused launch.  The
   solve's vectors are allocated once and overwritten in place; the
   candidate step [s + alpha p] goes to a second buffer, because the
   boundary step needs the old [s]. *)
let steihaug session input ~d ~g ~lambda ~delta ~iterations ~tolerance =
  let n = Fusion.Executor.cols input in
  let s = ref (Vec.create n) and spare = ref (Vec.create n) in
  let r = Vec.scale (-1.0) g in
  let p = Vec.copy r in
  let hp = Vec.create n in
  let rr = ref (Session.dot session r r) in
  let target = !rr *. tolerance *. tolerance in
  let count = ref 0 in
  let hit_boundary = ref false in
  while !count < iterations && !rr > target && not !hit_boundary do
    (* unregularised fits drop the [+ lambda p] stage, degrading to the
       X^T(v.(Xy)) instantiation *)
    let beta_z = if lambda = 0.0 then None else Some (lambda, p) in
    ignore
      (Session.pattern session ~into:hp input ~y:p ~v:d ?beta_z ~alpha:1.0 ());
    let php = Session.dot session p hp in
    if php <= 0.0 then hit_boundary := true
    else begin
      let alpha = !rr /. php in
      let s' = Session.axpy session ~into:!spare alpha p !s in
      if Vec.nrm2 s' > delta then begin
        (* clip to the trust-region boundary along p *)
        let snorm = Vec.nrm2 !s in
        let frac = (delta -. snorm) /. (Vec.nrm2 s' -. snorm +. 1e-30) in
        ignore
          (Session.axpy session ~into:!s (alpha *. Float.max 0.0 frac) p !s);
        hit_boundary := true
      end
      else begin
        spare := !s;
        s := s';
        ignore (Session.axpy session ~into:r (-.alpha) hp r);
        let rr' = Session.dot session r r in
        ignore (Session.scal session ~into:p (rr' /. !rr) p);
        ignore (Session.axpy session ~into:p 1.0 r p);
        rr := rr'
      end;
      incr count
    end
  done;
  (!s, !count)

let fit ?engine ?(lambda = 1.0) ?(newton_iterations = 15)
    ?(cg_iterations = 25) ?(tolerance = 1e-5) ?checkpoint ?ckpt_meta ?resume
    device input ~labels =
  let m = Fusion.Executor.rows input in
  if Array.length labels <> m then
    invalid_arg "Logreg.fit: one label per row required";
  Array.iter
    (fun l ->
      if l <> 1.0 && l <> -1.0 then
        invalid_arg "Logreg.fit: labels must be +1/-1")
    labels;
  let session =
    Session.create ?engine ?checkpoint ?ckpt_meta device ~algorithm:"LogReg"
  in
  Kf_obs.Trace.with_span "fit.LogReg" @@ fun () ->
  let n = Fusion.Executor.cols input in
  let w = ref (Vec.create n) in
  let delta = ref 1.0 in
  let cg_total = ref 0 in
  let newton = ref 0 in
  let margins = ref (Vec.create m) in
  let current_loss = ref 0.0 in
  let converged = ref false in
  let resumed =
    Session.state ?resume session
      Session.State.
        [
          vec "logreg.w" w;
          float "logreg.delta" delta;
          int "logreg.cg_total" cg_total;
          int "logreg.newton" newton;
          vec "logreg.margins" margins;
          float "logreg.loss" current_loss;
          flag "logreg.converged" converged;
        ]
  in
  if not resumed then begin
    margins := Session.x_y session input !w;
    current_loss := loss_of ~lambda ~labels !margins !w
  end;
  while !newton < newton_iterations && not !converged do
    Session.iteration session (fun () ->
        let sigma =
          Array.mapi (fun i z -> sigmoid (labels.(i) *. z)) !margins
        in
        (* gradient: X^T ((sigma - 1) .* y_label) + lambda w *)
        let gvec = Array.mapi (fun i s -> (s -. 1.0) *. labels.(i)) sigma in
        let g = Session.xt_y session input gvec ~alpha:1.0 in
        let g = Session.axpy session lambda !w g in
        let gnorm = Session.nrm2 session g in
        if gnorm < tolerance then converged := true
        else begin
          (* Hessian weights d_i = sigma_i (1 - sigma_i) *)
          let d = Array.map (fun s -> s *. (1.0 -. s)) sigma in
          let s, used =
            steihaug session input ~d ~g ~lambda ~delta:!delta
              ~iterations:cg_iterations ~tolerance
          in
          cg_total := !cg_total + used;
          let w' = Vec.add !w s in
          let margins' = Session.x_y session input w' in
          let loss' = loss_of ~lambda ~labels margins' w' in
          let predicted =
            (* quadratic model decrease: -g.s - 0.5 s.H s ~ -0.5 g.s at CG
               exit *)
            -.0.5 *. Vec.dot g s
          in
          let actual = !current_loss -. loss' in
          let rho = if predicted > 0.0 then actual /. predicted else 0.0 in
          if rho > 0.75 then delta := Float.min (2.0 *. !delta) 1e3
          else if rho < 0.25 then delta := Float.max (0.25 *. !delta) 1e-6;
          if actual > 0.0 then begin
            w := w';
            margins := margins';
            current_loss := loss'
          end;
          if Float.abs actual < tolerance *. Float.max 1.0 !current_loss then
            converged := true;
          incr newton
        end)
  done;
  let correct = ref 0 in
  Array.iteri
    (fun i z -> if labels.(i) *. z > 0.0 then incr correct)
    !margins;
  {
    weights = !w;
    newton_iterations = !newton;
    cg_iterations = !cg_total;
    loss = !current_loss;
    accuracy = float_of_int !correct /. float_of_int (Stdlib.max 1 m);
    gpu_ms = Session.gpu_ms session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

(* --- unified algorithm API ------------------------------------------------ *)

let predict_proba w input = Array.map sigmoid (Algorithm.matvec input w)

module Algo = struct
  let name = "logreg"

  let display_name = "logistic regression (trust region)"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    let labels = Dataset.classification_targets p.raw in
    let r =
      fit ~engine:cfg.engine ?newton_iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device p.input ~labels
    in
    {
      Algorithm.label = Printf.sprintf "accuracy %.1f%%" (100.0 *. r.accuracy);
      fields = [ ("accuracy", Kf_obs.Json.Float r.accuracy) ];
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
    {
      Algorithm.s_vecs = [| w.vecs.(0) |];
      s_finish = (fun m -> Array.map sigmoid m.(0));
    }
end
