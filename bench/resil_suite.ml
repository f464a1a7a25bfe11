(* Resilience-layer benchmark (Bechamel): what the numerical guards cost
   when no fault ever fires, and what a checkpoint write costs.

   The guard scan is O(cols) against the fused pattern's O(nnz) compute,
   so its overhead on the real multicore host backend should disappear
   into measurement noise — the acceptance bar is < 2% on wall-clock.
   Checkpoint writes are the other recurring resilience cost: one
   serialise + checksum + fsync-free atomic rename per cadence tick.

   Usage:
     dune exec bench/resil_suite.exe            # default shape
     dune exec bench/resil_suite.exe -- --small # CI-sized quick run

   Emits BENCH_resil.json in the working directory. *)

open Bechamel
open Toolkit
open Matrix

let measure ~name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:30 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Benchmark.all cfg instances test in
  let analyzed = Analyze.all ols Instance.monotonic_clock results in
  let estimate = ref None in
  Hashtbl.iter
    (fun _name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> estimate := Some est
      | _ -> ())
    analyzed;
  match !estimate with Some ns -> ns /. 1e6 (* ms per run *) | None -> Float.nan

let () =
  let small = Array.exists (( = ) "--small") Sys.argv in
  let rows = if small then 20_000 else 100_000 in
  let cols = 1024 in
  let density = 0.005 in
  let rng = Rng.create 20260805 in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density in
  let input = Fusion.Executor.Sparse x in
  let y = Gen.vector rng cols in
  let v = Gen.vector rng rows in
  let z = Gen.vector rng cols in
  let device = Gpu_sim.Device.gtx_titan in
  let pool = Par.Pool.default () in
  Printf.printf "resil suite: %d x %d CSR, %d nnz, %d domains, faults off\n%!"
    rows cols (Csr.nnz x) (Par.Pool.size pool);
  let run_pattern () =
    ignore
      (Fusion.Executor.pattern ~engine:Fusion.Executor.Host ~pool device
         input ~y ~v ~beta_z:(0.5, z) ~alpha:2.0 ())
  in
  let guarded ms_on flag f =
    Kf_resil.Guard.with_enabled flag (fun () -> measure ~name:ms_on f)
  in
  let off_ms = guarded "host-pattern:guards=off" false run_pattern in
  Printf.printf "  %-28s %10.3f ms/run\n%!" "host-pattern:guards=off" off_ms;
  let on_ms = guarded "host-pattern:guards=on" true run_pattern in
  Printf.printf "  %-28s %10.3f ms/run\n%!" "host-pattern:guards=on" on_ms;
  let overhead_pct = 100.0 *. ((on_ms /. off_ms) -. 1.0) in
  Printf.printf "  guard overhead: %+.3f%% (acceptance < 2%%)\n%!"
    overhead_pct;
  (* checkpoint write cost: a realistic LR-CG state (three cols-sized
     vectors plus the session accounting) on the write path, including
     the verify-after-write read-back *)
  let ckpt_path = Filename.temp_file "kf_resil_bench" ".ckpt" in
  let payload =
    [
      ("lr.w", Kf_resil.Ckpt.Floats (Gen.vector rng cols));
      ("lr.r", Kf_resil.Ckpt.Floats (Gen.vector rng cols));
      ("lr.p", Kf_resil.Ckpt.Floats (Gen.vector rng cols));
      ("lr.nr2", Kf_resil.Ckpt.Float 1.0);
      ("lr.i", Kf_resil.Ckpt.Int 17);
    ]
  in
  let write_ckpt () =
    Kf_resil.Ckpt.write ~path:ckpt_path ~algorithm:"bench" ~iteration:17
      payload
  in
  let ckpt_ms = measure ~name:"ckpt-write" write_ckpt in
  write_ckpt ();
  let ckpt_bytes = (Unix.stat ckpt_path).Unix.st_size in
  (try Sys.remove ckpt_path with Sys_error _ -> ());
  Printf.printf "  %-28s %10.3f ms/run (%d bytes)\n%!" "ckpt-write" ckpt_ms
    ckpt_bytes;
  let doc =
    Kf_obs.Json.Obj
      [
        ( "meta",
          Kf_obs.Json.Obj
            [
              ("ocaml_version", Kf_obs.Json.Str Sys.ocaml_version);
              ("small", Kf_obs.Json.Bool small);
              ("domains", Kf_obs.Json.Int (Par.Pool.size pool));
            ] );
        ( "matrix",
          Kf_obs.Json.Obj
            [
              ("rows", Kf_obs.Json.Int rows);
              ("cols", Kf_obs.Json.Int cols);
              ("nnz", Kf_obs.Json.Int (Csr.nnz x));
            ] );
        ( "guards",
          Kf_obs.Json.Obj
            [
              ("off_ms", Kf_obs.Json.Float off_ms);
              ("on_ms", Kf_obs.Json.Float on_ms);
              ("overhead_pct", Kf_obs.Json.Float overhead_pct);
            ] );
        ( "checkpoint",
          Kf_obs.Json.Obj
            [
              ("write_ms", Kf_obs.Json.Float ckpt_ms);
              ("bytes", Kf_obs.Json.Int ckpt_bytes);
              ("state_floats", Kf_obs.Json.Int (3 * cols));
            ] );
      ]
  in
  let oc = open_out "BENCH_resil.json" in
  Kf_obs.Json.to_channel oc doc;
  close_out oc;
  print_endline "wrote BENCH_resil.json"
