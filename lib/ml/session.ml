open Gpu_sim

type iteration = {
  it_index : int;
  it_wall_ns : int;
  it_device_ms : float;
  it_launches : int;
}

type t = {
  device : Device.t;
  engine : Fusion.Executor.engine;
  pool : Par.Pool.t option;  (* only consulted by the Host engine *)
  cluster : Kf_dist.Cluster.t option;  (* only consulted by Dist *)
  trace : Fusion.Pattern.Trace.t;
  mutable gpu_ms : float;
  mutable pattern_ms : float;
  mutable launches : int;
  mutable iters : int;
  mutable timeline_rev : iteration list;
  mutable ckpt : ckpt_cfg option;
  mutable state_fn : (unit -> Kf_resil.Ckpt.payload) option;
}

and ckpt_cfg = { ckpt_path : string; ckpt_every : int; ckpt_meta : Kf_resil.Ckpt.payload }

let iterations_counter = Kf_obs.Counter.make "session.iterations"

let ckpt_resumes_counter = Kf_obs.Counter.make "resil.ckpt_resumes"

let create ?(engine = Fusion.Executor.Fused) ?pool ?cluster device ~algorithm =
  {
    device;
    engine;
    pool;
    cluster;
    trace = Fusion.Pattern.Trace.create ~algorithm;
    gpu_ms = 0.0;
    pattern_ms = 0.0;
    launches = 0;
    iters = 0;
    timeline_rev = [];
    ckpt = None;
    state_fn = None;
  }

let device t = t.device

let engine t = t.engine

let algorithm t = Fusion.Pattern.Trace.algorithm t.trace

(* The one accounting path for every executor op, whichever result
   record carries it: device time and launches, and — for pattern
   instances of any family — the trace entry. *)
let absorb t ~time_ms ~reports desc =
  t.gpu_ms <- t.gpu_ms +. time_ms;
  t.launches <- t.launches + List.length reports;
  match desc with
  | Some d ->
      t.pattern_ms <- t.pattern_ms +. time_ms;
      Fusion.Pattern.Trace.record_desc t.trace d
  | None -> ()

let absorb_result t (r : Fusion.Executor.result) =
  absorb t ~time_ms:r.time_ms ~reports:r.reports
    (Option.map Fusion.Pattern.descriptor r.instantiation);
  r.w

let absorb_mat t (r : Fusion.Executor.mat_result) =
  absorb t ~time_ms:r.m_time_ms ~reports:r.m_reports r.m_desc;
  r.m_value

let xt_y t input y ~alpha =
  absorb_result t
    (Fusion.Executor.xt_y ~engine:t.engine ?pool:t.pool ?cluster:t.cluster
       t.device input y ~alpha)

let pattern t input ~y ?v ?beta_z ~alpha () =
  absorb_result t
    (Fusion.Executor.pattern ~engine:t.engine ?pool:t.pool ?cluster:t.cluster
       t.device input ~y ?v ?beta_z ~alpha ())

let x_y t input y =
  absorb_result t
    (Fusion.Executor.x_y ~engine:t.engine ?pool:t.pool ?cluster:t.cluster
       t.device input y)

(* Every executor graph op returns the matrix flavour its signature
   promises on all engines, so these projections cannot fail. *)
let expect_sparse = function
  | Fusion.Executor.Sparse s -> s
  | Fusion.Executor.Dense _ -> assert false

let expect_dense = function
  | Fusion.Executor.Dense d -> d
  | Fusion.Executor.Sparse _ -> assert false

let sddmm ?semiring t g h =
  expect_sparse
    (absorb_mat t
       (Fusion.Executor.sddmm ~engine:t.engine ?pool:t.pool ?semiring t.device
          g h))

let spmm ?semiring t s h =
  expect_dense
    (absorb_mat t
       (Fusion.Executor.spmm ~engine:t.engine ?pool:t.pool ?semiring t.device s
          h))

let fusedmm ?semiring t inst g h =
  expect_dense
    (absorb_mat t
       (Fusion.Executor.fusedmm ~engine:t.engine ?pool:t.pool ?semiring
          t.device inst g h))

let absorb_level1 t reports =
  t.gpu_ms <- t.gpu_ms +. Sim.total_ms reports;
  t.launches <- t.launches + List.length reports

let dot t x y =
  let r, reports = Gpulibs.Cublas.dot t.device x y in
  absorb_level1 t reports;
  r

let nrm2 t x =
  let r, reports = Gpulibs.Cublas.nrm2 t.device x in
  absorb_level1 t reports;
  r

let axpy t a x y =
  let r, reports = Gpulibs.Cublas.axpy t.device a x y in
  absorb_level1 t reports;
  r

let scal t a x =
  let r, reports = Gpulibs.Cublas.scal t.device a x in
  absorb_level1 t reports;
  r

let mul_elementwise t v p =
  let r, reports = Gpulibs.Cublas.mul_elementwise t.device v p in
  absorb_level1 t reports;
  r

(* --- checkpoint/restore --------------------------------------------------- *)

let set_checkpoint ?(meta = []) t ~path ~every =
  if every < 1 then invalid_arg "Session.set_checkpoint: every must be >= 1";
  t.ckpt <- Some { ckpt_path = path; ckpt_every = every; ckpt_meta = meta }

let set_state_fn t f = t.state_fn <- Some f

(* Session-side state rides in the same checkpoint as the algorithm's:
   device/pattern-time accounting plus the pattern-trace counts, so a
   resumed run reports the same Table 1 row and the same simulated
   totals as an uninterrupted one.  Equation-1 counts keep the original
   ["session.trace"] array (in [Pattern.all] order — old checkpoints
   stay loadable); every other family's counts travel as one
   ["session.trace.<family>/<inst>"] field each, keyed so the order in
   the file does not matter. *)
let trace_key_prefix = "session.trace."

let session_payload t =
  let counts =
    List.map (fun i -> Fusion.Pattern.Trace.count t.trace i) Fusion.Pattern.all
  in
  let family_counts =
    List.filter_map
      (fun ((d : Fusion.Pattern_family.descriptor), n) ->
        if d.family = "eq1" then None
        else
          Some
            (trace_key_prefix ^ Fusion.Pattern_family.key d, Kf_resil.Ckpt.Int n))
      (Fusion.Pattern.Trace.entries t.trace)
  in
  [
    ("session.gpu_ms", Kf_resil.Ckpt.Float t.gpu_ms);
    ("session.pattern_ms", Kf_resil.Ckpt.Float t.pattern_ms);
    ("session.launches", Kf_resil.Ckpt.Int t.launches);
    ("session.iters", Kf_resil.Ckpt.Int t.iters);
    ("session.trace", Kf_resil.Ckpt.Ints (Array.of_list counts));
  ]
  @ family_counts

let write_checkpoint t =
  match (t.ckpt, t.state_fn) with
  | Some cfg, Some state_fn when t.iters mod cfg.ckpt_every = 0 ->
      Kf_obs.Trace.with_span "ckpt.write"
        ~args:[ ("iteration", string_of_int t.iters) ]
      @@ fun () ->
      Kf_resil.Ckpt.write ~path:cfg.ckpt_path
        ~algorithm:(Fusion.Pattern.Trace.algorithm t.trace)
        ~iteration:t.iters
        (session_payload t @ cfg.ckpt_meta @ state_fn ())
  | _ -> ()

let resume t ~path =
  let ck = Kf_resil.Ckpt.read ~path in
  let alg = Fusion.Pattern.Trace.algorithm t.trace in
  if ck.Kf_resil.Ckpt.algorithm <> alg then
    invalid_arg
      (Printf.sprintf
         "Session.resume: checkpoint %s was written by algorithm %S, not %S"
         path ck.Kf_resil.Ckpt.algorithm alg);
  let p = ck.Kf_resil.Ckpt.payload in
  t.gpu_ms <- Kf_resil.Ckpt.get_float p "session.gpu_ms";
  t.pattern_ms <- Kf_resil.Ckpt.get_float p "session.pattern_ms";
  t.launches <- Kf_resil.Ckpt.get_int p "session.launches";
  t.iters <- Kf_resil.Ckpt.get_int p "session.iters";
  let counts = Kf_resil.Ckpt.get_ints p "session.trace" in
  List.iteri
    (fun k inst ->
      if k < Array.length counts then
        for _ = 1 to counts.(k) do
          Fusion.Pattern.Trace.record t.trace inst
        done)
    Fusion.Pattern.all;
  let plen = String.length trace_key_prefix in
  List.iter
    (fun (name, field) ->
      if String.length name > plen && String.sub name 0 plen = trace_key_prefix
      then
        let key = String.sub name plen (String.length name - plen) in
        match (field, Fusion.Pattern_family.of_key key) with
        | Kf_resil.Ckpt.Int n, Some d when d.family <> "eq1" ->
            for _ = 1 to n do
              Fusion.Pattern.Trace.record_desc t.trace d
            done
        | _ -> ())
    p;
  Kf_obs.Counter.incr ckpt_resumes_counter;
  Kf_obs.Trace.instant "ckpt.resume"
    ~args:
      [ ("path", path); ("iteration", string_of_int ck.Kf_resil.Ckpt.iteration) ];
  p

let iteration t f =
  let index = t.iters in
  t.iters <- t.iters + 1;
  let ms0 = t.gpu_ms and l0 = t.launches in
  let t0 = Kf_obs.Clock.now_ns () in
  let record () =
    Kf_obs.Counter.incr iterations_counter;
    t.timeline_rev <-
      {
        it_index = index;
        it_wall_ns = Kf_obs.Clock.now_ns () - t0;
        it_device_ms = t.gpu_ms -. ms0;
        it_launches = t.launches - l0;
      }
      :: t.timeline_rev
  in
  let result =
    Kf_obs.Trace.with_span
      ~args:
        [
          ("algorithm", Fusion.Pattern.Trace.algorithm t.trace);
          ("iteration", string_of_int index);
        ]
      "iter"
      (fun () -> Fun.protect ~finally:record f)
  in
  (* only after the body completed: a checkpoint must never capture the
     state a raising iteration left behind *)
  write_checkpoint t;
  result

let timeline t = List.rev t.timeline_rev

let iteration_json it =
  Kf_obs.Json.Obj
    [
      ("iteration", Kf_obs.Json.Int it.it_index);
      ("wall_ms", Kf_obs.Json.Float (Kf_obs.Clock.ns_to_ms it.it_wall_ns));
      ("device_ms", Kf_obs.Json.Float it.it_device_ms);
      ("launches", Kf_obs.Json.Int it.it_launches);
    ]

let timeline_json t = Kf_obs.Json.List (List.map iteration_json (timeline t))

let gpu_ms t = t.gpu_ms

let pattern_ms t = t.pattern_ms

let launches t = t.launches

let trace t = t.trace
