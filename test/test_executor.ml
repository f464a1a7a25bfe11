(* The executor's per-call contract, checked uniformly for every public
   op on every engine: the [executor.<op>] span repeats the dispatch
   decision, a [Host_stats] sink installed around the call gains the
   input's rows exactly when the host kernels ran (at least those rows
   when an injected fault made it re-run them), simulated engines
   report summed kernel time while real ones report the span's wall
   time with no kernel reports, and each call bumps [executor.ops]
   once.  The graph ops have no Dist kernels, so Dist must defer to
   Host and still honour the same contract. *)
open Matrix
module Executor = Fusion.Executor

let device = Gpu_sim.Device.gtx_titan

let pool = lazy (Par.Pool.create ~size:2 ())

(* What every op's result exposes, whichever record type carries it. *)
type observed = {
  engine_used : string;
  reports : Gpu_sim.Sim.report list;
  time_ms : float;
}

let of_result (r : Executor.result) =
  { engine_used = r.engine_used; reports = r.reports; time_ms = r.time_ms }

let of_mat (r : Executor.mat_result) =
  {
    engine_used = r.m_engine_used;
    reports = r.m_reports;
    time_ms = r.m_time_ms;
  }

let ops_counter = Kf_obs.Counter.make "executor.ops"

let host_ops_counter = Kf_obs.Counter.make "executor.host_ops"

let executor_spans op =
  List.filter_map
    (function
      | Kf_obs.Trace.Span { name; dur_ns; args; _ } when name = "executor." ^ op
        ->
          Some (dur_ns, args)
      | _ -> None)
    (Kf_obs.Trace.events ())

let retries_counter = Kf_obs.Counter.make "resil.retries"

let fallbacks_counter = Kf_obs.Counter.make "resil.fallbacks"

(* Recovery attempts so far.  A call that moves this re-ran kernels
   after an injected fault (KF_FAULTS), and a sink installed around it
   also counts the failed attempts' work. *)
let recoveries () =
  Kf_obs.Counter.value retries_counter + Kf_obs.Counter.value fallbacks_counter

let check_call ~op ~engine ~rows call =
  let what fmt =
    Printf.ksprintf
      (fun s -> Printf.sprintf "%s on %s: %s" op (Executor.engine_to_string engine) s)
      fmt
  in
  let host_ran = engine = Executor.Host || engine = Executor.Dist in
  let sink = Kf_obs.Host_stats.create ~domains:2 in
  Kf_obs.Trace.clear ();
  Kf_obs.Trace.enable ();
  let ops0 = Kf_obs.Counter.value ops_counter in
  let host0 = Kf_obs.Counter.value host_ops_counter in
  let recoveries0 = recoveries () in
  let o =
    Fun.protect
      ~finally:(fun () -> Kf_obs.Trace.disable ())
      (fun () -> Kf_obs.Host_stats.with_sink sink (fun () -> call ~engine))
  in
  let recovered = recoveries () > recoveries0 in
  let spans = executor_spans op in
  Kf_obs.Trace.clear ();
  Alcotest.(check int) (what "one executor span") 1 (List.length spans);
  let dur_ns, args = List.hd spans in
  Alcotest.(check (option string)) (what "span decision = engine_used")
    (Some o.engine_used) (List.assoc_opt "decision" args);
  Alcotest.(check (option string)) (what "span rows")
    (Some (string_of_int rows)) (List.assoc_opt "rows" args);
  let sink_rows = Kf_obs.Host_stats.total_rows sink in
  if not host_ran then
    Alcotest.(check int) (what "sink untouched off the host") 0 sink_rows
  else if recovered then
    Alcotest.(check bool)
      (what "sink gains at least the rows after recovery")
      true (sink_rows >= rows)
  else Alcotest.(check int) (what "sink gains the rows") rows sink_rows;
  if host_ran then begin
    Alcotest.(check int) (what "no kernel reports") 0 (List.length o.reports);
    Alcotest.(check (float 0.0)) (what "time_ms is the span's duration")
      (Kf_obs.Clock.ns_to_ms dur_ns) o.time_ms
  end
  else
    Alcotest.(check (float 0.0)) (what "time_ms = Sim.total_ms reports")
      (Gpu_sim.Sim.total_ms o.reports)
      o.time_ms;
  Alcotest.(check int) (what "executor.ops moves by 1") (ops0 + 1)
    (Kf_obs.Counter.value ops_counter);
  Alcotest.(check int) (what "executor.host_ops moves iff host ran")
    (host0 + if host_ran then 1 else 0)
    (Kf_obs.Counter.value host_ops_counter)

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
          check_call ~op ~engine ~rows (fun ~engine ->
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
      check_call ~op ~engine ~rows:g.Csr.rows (fun ~engine ->
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
