open Matrix

type result = {
  class_weights : Vec.t array;
  classes : int;
  accuracy : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

(* The predicted class of every row: the argmax over its per-class
   margins (ties go to the lower class). *)
let argmax_classes margins =
  let classes = Array.length margins in
  let m = Array.length margins.(0) in
  Array.init m (fun i ->
      let best = ref 0 in
      for k = 1 to classes - 1 do
        if margins.(k).(i) > margins.(!best).(i) then best := k
      done;
      !best)

let predict r input =
  argmax_classes (Array.map (Algorithm.matvec input) r.class_weights)

let algorithm_name = "LogReg-multinomial"

let fit ?engine ?(lambda = 1.0) ?(newton_iterations = 10)
    ?(cg_iterations = 20) ?checkpoint ?(ckpt_meta = []) ?resume device input
    ~labels ~classes =
  if classes < 2 then invalid_arg "Multinomial.fit: need at least 2 classes";
  let m = Fusion.Executor.rows input in
  if Array.length labels <> m then
    invalid_arg "Multinomial.fit: one label per row required";
  Array.iter
    (fun l ->
      if l < 0 || l >= classes then
        invalid_arg "Multinomial.fit: label out of range")
    labels;
  let n = Fusion.Executor.cols input in
  let trace = Fusion.Pattern.Trace.create ~algorithm:algorithm_name in
  let gpu_ms = ref 0.0 in
  (* per-class timelines concatenated in class order; the class fits have
     their own sessions, so the merged timeline re-runs iteration indices
     from 0 at each class boundary *)
  let timeline_rev = ref [] in
  let weights = Array.make classes [||] in
  (* Checkpoints land at class granularity: the one-vs-rest fits are
     independent, so "resume" means "skip the classes already solved" —
     far coarser than the solvers' per-iteration checkpoints but exact
     for the same reason.  Resumed classes contribute no timeline
     entries (their wall times belonged to a dead process). *)
  let start_class = ref 0 in
  (match resume with
  | Some path ->
      let ck = Kf_resil.Ckpt.read ~path in
      if ck.Kf_resil.Ckpt.algorithm <> algorithm_name then
        invalid_arg
          (Printf.sprintf
             "Multinomial.fit: checkpoint %s was written by algorithm %S, not \
              %S"
             path ck.Kf_resil.Ckpt.algorithm algorithm_name);
      let st = ck.Kf_resil.Ckpt.payload in
      let done_ = Kf_resil.Ckpt.get_int st "mn.classes_done" in
      let flat = Kf_resil.Ckpt.get_floats st "mn.weights" in
      if Array.length flat <> done_ * n then
        raise
          (Kf_resil.Ckpt.Corrupt
             (Printf.sprintf
                "%s: stored weights cover %d values, expected %d classes x %d \
                 columns"
                path (Array.length flat) done_ n));
      for k = 0 to done_ - 1 do
        weights.(k) <- Array.sub flat (k * n) n
      done;
      gpu_ms := Kf_resil.Ckpt.get_float st "mn.gpu_ms";
      let counts = Kf_resil.Ckpt.get_ints st "mn.trace" in
      List.iteri
        (fun j inst ->
          if j < Array.length counts then
            for _ = 1 to counts.(j) do
              Fusion.Pattern.Trace.record trace inst
            done)
        Fusion.Pattern.all;
      start_class := done_
  | None -> ());
  let write_class_ckpt k =
    match checkpoint with
    | Some (path, every) when (k + 1) mod every = 0 || k + 1 = classes ->
        let flat = Array.concat (Array.to_list (Array.sub weights 0 (k + 1))) in
        let counts =
          List.map (fun i -> Fusion.Pattern.Trace.count trace i) Fusion.Pattern.all
        in
        Kf_resil.Ckpt.write ~path ~algorithm:algorithm_name ~iteration:(k + 1)
          ([
             ("mn.classes_done", Kf_resil.Ckpt.Int (k + 1));
             ("mn.weights", Kf_resil.Ckpt.Floats flat);
             ("mn.gpu_ms", Kf_resil.Ckpt.Float !gpu_ms);
             ("mn.trace", Kf_resil.Ckpt.Ints (Array.of_list counts));
           ]
          @ ckpt_meta)
    | _ -> ()
  in
  Kf_obs.Trace.with_span "fit.LogReg-multinomial" (fun () ->
      for k = !start_class to classes - 1 do
        (* one-vs-rest: class k against everything else *)
        let binary = Array.map (fun l -> if l = k then 1.0 else -1.0) labels in
        let r =
          Kf_obs.Trace.with_span ~args:[ ("class", string_of_int k) ]
            "fit.class" (fun () ->
              Logreg.fit ?engine ~lambda ~newton_iterations
                ~cg_iterations device input ~labels:binary)
        in
        gpu_ms := !gpu_ms +. r.Logreg.gpu_ms;
        timeline_rev := List.rev_append r.Logreg.timeline !timeline_rev;
        List.iter
          (fun inst ->
            for _ = 1 to Fusion.Pattern.Trace.count r.Logreg.trace inst do
              Fusion.Pattern.Trace.record trace inst
            done)
          (Fusion.Pattern.Trace.instantiations r.Logreg.trace);
        weights.(k) <- r.Logreg.weights;
        write_class_ckpt k
      done);
  let result =
    {
      class_weights = weights;
      classes;
      accuracy = 0.0;
      gpu_ms = !gpu_ms;
      trace;
      timeline = List.rev !timeline_rev;
    }
  in
  let correct = ref 0 in
  Array.iteri
    (fun i p -> if p = labels.(i) then incr correct)
    (predict result input);
  { result with accuracy = float_of_int !correct /. float_of_int (Stdlib.max 1 m) }

(* --- unified algorithm API ------------------------------------------------ *)

module Algo = struct
  let name = "multinomial"

  let display_name = "multinomial logistic regression (one-vs-rest)"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    let labels =
      Array.map
        (fun t -> if t < -0.5 then 0 else if t < 0.5 then 1 else 2)
        p.raw
    in
    let classes = 3 in
    let r =
      fit ~engine:cfg.engine ?newton_iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device p.input ~labels ~classes
    in
    {
      Algorithm.label =
        Printf.sprintf "%d classes, accuracy %.1f%%" r.classes
          (100.0 *. r.accuracy);
      fields =
        [
          ("classes", Kf_obs.Json.Int r.classes);
          ("accuracy", Kf_obs.Json.Float r.accuracy);
        ];
      weights =
        {
          Algorithm.vecs = r.class_weights;
          cols = Fusion.Executor.cols p.input;
          extra = [ ("model.classes", Kf_resil.Ckpt.Int r.classes) ];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  (* Scores are predicted class indices (as floats): the argmax over the
     per-class margins, each margin being one [X x w_k] launch. *)
  let scorer (w : Algorithm.weights) =
    {
      Algorithm.s_vecs = w.vecs;
      s_finish =
        (fun margins ->
          Array.map float_of_int (argmax_classes margins));
    }
end
