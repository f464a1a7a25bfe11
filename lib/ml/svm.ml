open Matrix

type result = {
  weights : Vec.t;
  newton_iterations : int;
  cg_iterations : int;
  objective : float;
  support_vectors : int;
  accuracy : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

(* Restrict the data to the active (margin-violating) rows — Chapelle's
   support-set Hessian.  Rebuilding a compact matrix preserves Table 1:
   the Hessian products stay plain X^T(Xy) + beta*z, no Hadamard stage. *)
let restrict_rows input active =
  match input with
  | Fusion.Executor.Sparse (x : Csr.t) ->
      let rows = List.length active in
      let nnz =
        List.fold_left (fun acc r -> acc + Csr.row_nnz x r) 0 active
      in
      let values = Array.make nnz 0.0 in
      let col_idx = Array.make nnz 0 in
      let row_off = Array.make (rows + 1) 0 in
      let pos = ref 0 and ri = ref 0 in
      List.iter
        (fun r ->
          row_off.(!ri) <- !pos;
          for i = x.row_off.(r) to x.row_off.(r + 1) - 1 do
            values.(!pos) <- x.values.(i);
            col_idx.(!pos) <- x.col_idx.(i);
            incr pos
          done;
          incr ri)
        active;
      row_off.(rows) <- !pos;
      Fusion.Executor.Sparse
        (Csr.create ~rows ~cols:x.cols ~values ~col_idx ~row_off)
  | Fusion.Executor.Dense (x : Dense.t) ->
      let rows = Array.of_list active in
      Fusion.Executor.Dense
        (Dense.init (Array.length rows) x.cols (fun r c ->
             Dense.get x rows.(r) c))

let cg_solve session sub ~g ~lambda ~iterations ~tolerance =
  Cg.solve session ~r0:(Vec.scale (-1.0) g) ~iterations ~tolerance
    ~hv:(fun ~p ~into ->
      (* H p = 2 * Xsv^T (Xsv p) + lambda p — one fused launch; with no
         regulariser it is a plain X^T(Xy). *)
      let beta_z = if lambda = 0.0 then None else Some (lambda, p) in
      ignore (Session.pattern session ~into sub ~y:p ?beta_z ~alpha:2.0 ()))

let fit ?engine ?(lambda = 1.0) ?(newton_iterations = 10)
    ?(cg_iterations = 20) ?(tolerance = 1e-6) ?checkpoint ?ckpt_meta ?resume
    device input ~labels =
  let m = Fusion.Executor.rows input in
  if Array.length labels <> m then
    invalid_arg "Svm.fit: one label per row required";
  Array.iter
    (fun l ->
      if l <> 1.0 && l <> -1.0 then invalid_arg "Svm.fit: labels must be +1/-1")
    labels;
  let session =
    Session.create ?engine ?checkpoint ?ckpt_meta device ~algorithm:"SVM"
  in
  Kf_obs.Trace.with_span "fit.SVM" @@ fun () ->
  let n = Fusion.Executor.cols input in
  let w = ref (Vec.create n) in
  let newton = ref 0 and cg_total = ref 0 in
  let support = ref m in
  let objective = ref infinity in
  let margins = ref (Vec.create m) in
  let converged = ref false in
  let resumed =
    Session.state ?resume session
      Session.State.
        [
          vec "svm.w" w;
          int "svm.newton" newton;
          int "svm.cg_total" cg_total;
          int "svm.support" support;
          float "svm.objective" objective;
          vec "svm.margins" margins;
          flag "svm.converged" converged;
        ]
  in
  if not resumed then margins := Session.x_y session input !w;
  while !newton < newton_iterations && not !converged do
    Session.iteration session (fun () ->
        let active = ref [] in
        for i = m - 1 downto 0 do
          if labels.(i) *. !margins.(i) < 1.0 then active := i :: !active
        done;
        (match !active with
        | [] -> converged := true
        | active_rows ->
            support := List.length active_rows;
            let sub = restrict_rows input active_rows in
            (* gradient = lambda w - 2 Xsv^T u, u_i = y_i (1 - y_i margin_i) *)
            let u =
              Array.of_list
                (List.map
                   (fun i ->
                     labels.(i) *. (1.0 -. (labels.(i) *. !margins.(i))))
                   active_rows)
            in
            let g = Session.xt_y session sub u ~alpha:(-2.0) in
            let g = Session.axpy session lambda !w g in
            if Session.nrm2 session g < tolerance then converged := true
            else begin
              let s, used =
                cg_solve session sub ~g ~lambda ~iterations:cg_iterations
                  ~tolerance
              in
              cg_total := !cg_total + used;
              w := Session.axpy session 1.0 s !w;
              margins := Session.x_y session input !w;
              let obj =
                let acc = ref (0.5 *. lambda *. Vec.dot !w !w) in
                for i = 0 to m - 1 do
                  let r = 1.0 -. (labels.(i) *. !margins.(i)) in
                  if r > 0.0 then acc := !acc +. (r *. r)
                done;
                !acc
              in
              if Float.abs (!objective -. obj) < tolerance *. Float.max 1.0 obj
              then converged := true;
              objective := obj
            end);
        incr newton)
  done;
  let correct = ref 0 in
  Array.iteri (fun i z -> if labels.(i) *. z > 0.0 then incr correct) !margins;
  {
    weights = !w;
    newton_iterations = !newton;
    cg_iterations = !cg_total;
    objective = !objective;
    support_vectors = !support;
    accuracy = float_of_int !correct /. float_of_int (Stdlib.max 1 m);
    gpu_ms = Session.gpu_ms session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

(* --- unified algorithm API ------------------------------------------------ *)

let predict w input = Algorithm.matvec input w

module Algo = struct
  let name = "svm"

  let display_name = "primal SVM"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    let labels = Dataset.classification_targets p.raw in
    let r =
      fit ~engine:cfg.engine ?newton_iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device p.input ~labels
    in
    {
      Algorithm.label =
        Printf.sprintf "accuracy %.1f%%, %d support rows" (100.0 *. r.accuracy)
          r.support_vectors;
      fields =
        [
          ("accuracy", Kf_obs.Json.Float r.accuracy);
          ("support_vectors", Kf_obs.Json.Int r.support_vectors);
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
