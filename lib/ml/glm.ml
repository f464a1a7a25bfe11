open Matrix

type family = {
  family_name : string;
  mean : float -> float;
  weight : float -> float;
  residual : y:float -> mu:float -> float;
  deviance_term : y:float -> mu:float -> float;
  valid_target : float -> bool;
}

let clamp_exp e = exp (Float.min 30.0 e)

let poisson =
  {
    family_name = "poisson";
    mean = clamp_exp;
    weight = (fun mu -> mu);
    residual = (fun ~y ~mu -> y -. mu);
    deviance_term =
      (fun ~y ~mu ->
        let mu = Float.max 1e-12 mu in
        2.0 *. (if y > 0.0 then (y *. log (y /. mu)) -. (y -. mu) else mu));
    valid_target = (fun y -> y >= 0.0);
  }

let binomial =
  {
    family_name = "binomial";
    mean = (fun eta -> 1.0 /. (1.0 +. clamp_exp (-.eta)));
    weight = (fun mu -> Float.max 1e-12 (mu *. (1.0 -. mu)));
    residual = (fun ~y ~mu -> y -. mu);
    deviance_term =
      (fun ~y ~mu ->
        let mu = Float.min (1.0 -. 1e-12) (Float.max 1e-12 mu) in
        let part p q = if p > 0.0 then p *. log (p /. q) else 0.0 in
        2.0 *. (part y mu +. part (1.0 -. y) (1.0 -. mu)));
    valid_target = (fun y -> y >= 0.0 && y <= 1.0);
  }

let gamma =
  {
    family_name = "gamma";
    mean = clamp_exp;
    (* log link with gamma variance mu^2: constant IRLS weight *)
    weight = (fun _ -> 1.0);
    residual = (fun ~y ~mu -> (y -. mu) /. Float.max 1e-12 mu);
    deviance_term =
      (fun ~y ~mu ->
        let mu = Float.max 1e-12 mu and y = Float.max 1e-12 y in
        2.0 *. (-.log (y /. mu) +. ((y -. mu) /. mu)));
    valid_target = (fun y -> y > 0.0);
  }

type result = {
  weights : Vec.t;
  newton_iterations : int;
  cg_iterations : int;
  deviance : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

(* Inner CG on (X^T D X + eps I) delta = g, with the Hessian-vector
   product running as one fused pattern launch per iteration. *)
let cg_solve session input ~d ~g ~iterations ~tolerance =
  let eps = 1e-8 in
  (* A unit weight vector (e.g. gamma's log link, or the first Poisson
     step at w = 0) needs no Hadamard stage: the product degrades to
     X^T(Xp), one instantiation down Table 1. *)
  let v = if Array.for_all (fun di -> di = 1.0) d then None else Some d in
  Cg.solve session ~r0:(Vec.copy g) ~iterations ~tolerance
    ~hv:(fun ~p ~into ->
      ignore (Session.pattern session ~into input ~y:p ?v ~alpha:1.0 ());
      ignore (Session.axpy session ~into eps p into))

let fit ?engine ?(family = poisson) ?(newton_iterations = 10)
    ?(cg_iterations = 20) ?(tolerance = 1e-6) ?checkpoint ?ckpt_meta ?resume
    device input ~targets =
  let m = Fusion.Executor.rows input in
  if Array.length targets <> m then
    invalid_arg "Glm.fit: one target per row required";
  Array.iter
    (fun t ->
      if not (family.valid_target t) then
        invalid_arg
          (Printf.sprintf "Glm.fit: invalid target for the %s family"
             family.family_name))
    targets;
  let session =
    Session.create ?engine ?checkpoint ?ckpt_meta device ~algorithm:"GLM"
  in
  Kf_obs.Trace.with_span "fit.GLM" @@ fun () ->
  let n = Fusion.Executor.cols input in
  let w = ref (Vec.create n) in
  let cg_total = ref 0 in
  let newton = ref 0 in
  let deviance = ref infinity in
  let continue_ = ref true in
  ignore
    (Session.state ?resume session
       Session.State.
         [
           vec "glm.w" w;
           int "glm.cg_total" cg_total;
           int "glm.newton" newton;
           float "glm.deviance" deviance;
           flag "glm.continue" continue_;
         ]);
  while !newton < newton_iterations && !continue_ do
    Session.iteration session (fun () ->
        let eta = Session.x_y session input !w in
        let mu = Array.map family.mean eta in
        (* gradient g = X^T residual *)
        let resid =
          Array.init m (fun i -> family.residual ~y:targets.(i) ~mu:mu.(i))
        in
        let g = Session.xt_y session input resid ~alpha:1.0 in
        let d = Array.map family.weight mu in
        let delta, used =
          cg_solve session input ~d ~g ~iterations:cg_iterations ~tolerance
        in
        cg_total := !cg_total + used;
        w := Session.axpy session 1.0 delta !w;
        let dev =
          let acc = ref 0.0 in
          for i = 0 to m - 1 do
            acc := !acc +. family.deviance_term ~y:targets.(i) ~mu:mu.(i)
          done;
          !acc
        in
        if Float.abs (dev -. !deviance) < tolerance *. Float.max 1.0 dev then
          continue_ := false;
        deviance := dev;
        incr newton)
  done;
  {
    weights = !w;
    newton_iterations = !newton;
    cg_iterations = !cg_total;
    deviance = !deviance;
    gpu_ms = Session.gpu_ms session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

(* --- unified algorithm API ------------------------------------------------ *)

let families = [ poisson; binomial; gamma ]

let family_of_name name =
  List.find_opt (fun f -> f.family_name = name) families

let predict ?(family = poisson) w input =
  Array.map family.mean (Algorithm.matvec input w)

module Algo = struct
  let name = "glm"

  let display_name = "poisson GLM"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    (* The CLI's synthetic Poisson problem: counts from the linear
       predictor through the log link. *)
    let targets =
      Array.map (fun t -> Float.round (exp (0.02 *. t))) p.raw
    in
    let r =
      fit ~engine:cfg.engine ?newton_iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device p.input ~targets
    in
    {
      Algorithm.label =
        Printf.sprintf "%d Newton / %d CG iterations, deviance %g"
          r.newton_iterations r.cg_iterations r.deviance;
      fields =
        [
          ("newton_iterations", Kf_obs.Json.Int r.newton_iterations);
          ("cg_iterations", Kf_obs.Json.Int r.cg_iterations);
          ("deviance", Kf_obs.Json.Float r.deviance);
        ];
      weights =
        {
          Algorithm.vecs = [| r.weights |];
          cols = Array.length r.weights;
          extra =
            [ ("model.family", Kf_resil.Ckpt.Str poisson.family_name) ];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  let scorer (w : Algorithm.weights) =
    let family =
      match Kf_resil.Ckpt.find w.extra "model.family" with
      | Some (Kf_resil.Ckpt.Str s) -> (
          match family_of_name s with
          | Some f -> f
          | None ->
              invalid_arg
                (Printf.sprintf "Glm.Algo.scorer: unknown family %S" s))
      | Some _ ->
          invalid_arg "Glm.Algo.scorer: model.family must be a string field"
      | None -> poisson
    in
    {
      Algorithm.s_vecs = [| w.vecs.(0) |];
      s_finish = (fun m -> Array.map family.mean m.(0));
    }
end
