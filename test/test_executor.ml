(* The executor's per-call contract, checked uniformly for every public
   op on every engine: the profile names the op and repeats the
   dispatch decision, Host stats are attached exactly when the host
   kernels ran, simulated engines report summed kernel time while real
   ones report measured wall time with no kernel reports, and each call
   bumps [executor.ops] once and emits one [executor.<op>] span.  The
   graph ops have no Dist kernels, so Dist must defer to Host and still
   honour the same contract. *)
open Matrix
module Executor = Fusion.Executor

let device = Gpu_sim.Device.gtx_titan

let pool = lazy (Par.Pool.create ~size:2 ())

(* What every op's result exposes, whichever record type carries it. *)
type observed = {
  profile : Executor.profile;
  engine_used : string;
  reports : Gpu_sim.Sim.report list;
  time_ms : float;
}

let of_result (r : Executor.result) =
  {
    profile = r.profile;
    engine_used = r.engine_used;
    reports = r.reports;
    time_ms = r.time_ms;
  }

let of_mat (r : Executor.mat_result) =
  {
    profile = r.m_profile;
    engine_used = r.m_engine_used;
    reports = r.m_reports;
    time_ms = r.m_time_ms;
  }

let ops_counter = Kf_obs.Counter.make "executor.ops"

let host_ops_counter = Kf_obs.Counter.make "executor.host_ops"

let executor_spans op =
  List.length
    (List.filter
       (function
         | Kf_obs.Trace.Span { name; _ } -> name = "executor." ^ op
         | _ -> false)
       (Kf_obs.Trace.events ()))

let check_call ~op ~engine call =
  let what fmt =
    Printf.ksprintf
      (fun s -> Printf.sprintf "%s on %s: %s" op (Executor.engine_to_string engine) s)
      fmt
  in
  let host_ran = engine = Executor.Host || engine = Executor.Dist in
  Kf_obs.Trace.clear ();
  Kf_obs.Trace.enable ();
  let ops0 = Kf_obs.Counter.value ops_counter in
  let host0 = Kf_obs.Counter.value host_ops_counter in
  let o =
    Fun.protect
      ~finally:(fun () -> Kf_obs.Trace.disable ())
      (fun () -> call ~engine)
  in
  let spans = executor_spans op in
  Kf_obs.Trace.clear ();
  Alcotest.(check string) (what "profile.op") op o.profile.op;
  Alcotest.(check string) (what "decision = engine_used") o.engine_used
    o.profile.decision;
  Alcotest.(check bool) (what "profile.host iff host ran") host_ran
    (Option.is_some o.profile.host);
  if host_ran then begin
    Alcotest.(check int) (what "no kernel reports") 0 (List.length o.reports);
    Alcotest.(check (float 0.0)) (what "time_ms is measured wall time")
      (Kf_obs.Clock.ns_to_ms o.profile.wall_ns)
      o.time_ms
  end
  else
    Alcotest.(check (float 0.0)) (what "time_ms = Sim.total_ms reports")
      (Gpu_sim.Sim.total_ms o.reports)
      o.time_ms;
  Alcotest.(check int) (what "executor.ops moves by 1") (ops0 + 1)
    (Kf_obs.Counter.value ops_counter);
  Alcotest.(check int) (what "executor.host_ops moves iff host ran")
    (host0 + if host_ran then 1 else 0)
    (Kf_obs.Counter.value host_ops_counter);
  Alcotest.(check int) (what "one executor span") 1 spans

let vector_engines = Executor.[ Fused; Library; Host ]

let graph_engines = Executor.[ Fused; Library; Host; Dist ]

let sparse_x = lazy (Gen.sparse_uniform (Rng.create 7) ~rows:60 ~cols:24 ~density:0.2)

let dense_x = lazy (Gen.dense (Rng.create 8) ~rows:40 ~cols:16)

let inputs () =
  [
    Executor.Sparse (Lazy.force sparse_x);
    Executor.Dense (Lazy.force dense_x);
  ]

let check_vector_op ~op call () =
  List.iter
    (fun input ->
      let rng = Rng.create 9 in
      let rows = Executor.rows input and cols = Executor.cols input in
      List.iter
        (fun engine ->
          check_call ~op ~engine (fun ~engine ->
              of_result
                (call ~engine ~pool:(Lazy.force pool) ~rng input ~rows ~cols)))
        vector_engines)
    (inputs ())

let test_xt_y =
  check_vector_op ~op:"xt_y" (fun ~engine ~pool ~rng input ~rows ~cols:_ ->
      Executor.xt_y ~engine ~pool device input (Gen.vector rng rows) ~alpha:0.5)

let test_pattern =
  check_vector_op ~op:"pattern" (fun ~engine ~pool ~rng input ~rows ~cols ->
      Executor.pattern ~engine ~pool device input ~y:(Gen.vector rng cols)
        ~v:(Gen.vector rng rows)
        ~beta_z:(0.25, Gen.vector rng cols)
        ~alpha:1.5 ())

let test_x_y =
  check_vector_op ~op:"x_y" (fun ~engine ~pool ~rng input ~rows:_ ~cols ->
      Executor.x_y ~engine ~pool device input (Gen.vector rng cols))

let graph = lazy (Kf_ml.Dataset.adjacency (Rng.create 10) ~nodes:50 ~out_degree:4)

let embedding = lazy (Gen.dense (Rng.create 11) ~rows:50 ~cols:6)

let check_graph_op ~op call () =
  let g = Lazy.force graph and h = Lazy.force embedding in
  List.iter
    (fun engine ->
      check_call ~op ~engine (fun ~engine ->
          of_mat (call ~engine ~pool:(Lazy.force pool) g h)))
    graph_engines

let test_fusedmm =
  check_graph_op ~op:"fusedmm" (fun ~engine ~pool g h ->
      Executor.fusedmm ~engine ~pool ~semiring:Fusion.Semiring.sigmoid device
        Fusion.Fusedmm.Sddmm_spmm g h)

let test_sddmm =
  check_graph_op ~op:"sddmm" (fun ~engine ~pool g h ->
      Executor.sddmm ~engine ~pool device g h)

let test_spmm =
  check_graph_op ~op:"spmm" (fun ~engine ~pool g h ->
      Executor.spmm ~engine ~pool device g h)

let suite =
  [
    Alcotest.test_case "xt_y contract on every engine" `Quick test_xt_y;
    Alcotest.test_case "pattern contract on every engine" `Quick test_pattern;
    Alcotest.test_case "x_y contract on every engine" `Quick test_x_y;
    Alcotest.test_case "fusedmm contract, Dist defers" `Quick test_fusedmm;
    Alcotest.test_case "sddmm contract, Dist defers" `Quick test_sddmm;
    Alcotest.test_case "spmm contract, Dist defers" `Quick test_spmm;
  ]
