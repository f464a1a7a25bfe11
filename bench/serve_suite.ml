(* Serving benchmark: micro-batching window vs throughput and tail
   latency on the Host engine (real wall-clock execution).

   The grid is window {0, 50, 500} us + the adaptive controller, each
   crossed with concurrency {1, 8, 32} and pool sizes 1 and 4; every
   cell keeps the best of five interleaved rounds.  Window 0 scores
   every request alone — the unbatched baseline the speedup column is
   measured against.  The pool dispatch (broadcast + join
   over the worker domains) is the Host backend's per-launch overhead,
   so the amortisation the paper gets for kernel launches shows up here
   as the batched/unbatched ratio — largest where concurrency covers
   the batch cap and the pool is wide.  The adaptive cells answer the
   tuning question the fixed grid poses: the controller should land
   within a hair of the best fixed window at every concurrency without
   being told which window that is (the regression gate holds it to
   >= 0.95x via the adaptive_vs_best_fixed meta ratios).

   Usage:
     dune exec bench/serve_suite.exe            # ~1 s per cell
     dune exec bench/serve_suite.exe -- --small # CI-sized quick run

   Emits BENCH_serve.json in the working directory. *)

open Matrix

let device = Util.device

let cols = 64

let max_batch = 32

(* window cap for the adaptive cells: the largest fixed window in the
   grid, so the controller roams exactly the range the grid sweeps *)
let window_cap_us = 500

type win = Fixed of int | Adaptive

let windows = [ Fixed 0; Fixed 50; Fixed 500; Adaptive ]

let win_label = function
  | Fixed w -> Printf.sprintf "%5dus" w
  | Adaptive -> "  adapt"

(* the JSON window_us field doubles as the regression-gate cell key, so
   adaptive cells get a distinct string key, not a fake number *)
let win_json = function
  | Fixed w -> Kf_obs.Json.Int w
  | Adaptive -> Kf_obs.Json.Str "adaptive"

let concurrencies = [ 1; 8; 32 ]

let pool_sizes = [ 1; 4 ]

type cell = {
  pool : int;
  window : win;
  concurrency : int;
  summary : Kf_serve.Driver.summary;
  stats : Kf_serve.Service.stats;
}

let config_of_win = function
  | Fixed window_us ->
      {
        Kf_serve.Service.window_us;
        max_batch;
        queue_depth = 1024;
        adaptive = false;
        window_cap_us;
        deadline_shed = false;
      }
  | Adaptive ->
      {
        Kf_serve.Service.window_us = 0;
        max_batch;
        queue_depth = 1024;
        adaptive = true;
        window_cap_us;
        deadline_shed = false;
      }

let run_cell ~pool ~pool_size ~window ~concurrency ~duration_s ~weights =
  let svc =
    Kf_serve.Service.create ~engine:Fusion.Executor.Host ~pool
      ~config:(config_of_win window) device
      ~algo:(Kf_ml.Registry.find "lr")
      ~weights ()
  in
  (* unmeasured warmup: the sleepy low-concurrency window cells let the
     CPU clock down, and whichever cell runs next would otherwise pay
     the ramp-up — a systematic bias, not noise, so best-of rounds alone
     cannot average it away *)
  ignore
    (Kf_serve.Driver.run_inflight svc ~cols ~inflight:concurrency
       ~duration_s:0.05 ~seed:20260805);
  let summary =
    Kf_serve.Driver.run_inflight svc ~cols ~inflight:concurrency ~duration_s
      ~seed:20260805
  in
  let stats = Kf_serve.Service.stats svc in
  Kf_serve.Service.shutdown svc;
  { pool = pool_size; window; concurrency; summary; stats }

let cell_json ~window0_rps c =
  let q p = Kf_obs.Histogram.quantile c.summary.Kf_serve.Driver.latency_us p in
  Kf_obs.Json.Obj
    [
      ("pool", Kf_obs.Json.Int c.pool);
      ("window_us", win_json c.window);
      ("concurrency", Kf_obs.Json.Int c.concurrency);
      ("requests", Kf_obs.Json.Int c.summary.Kf_serve.Driver.ok);
      ("wall_s", Kf_obs.Json.Float c.summary.Kf_serve.Driver.wall_s);
      ( "throughput_rps",
        Kf_obs.Json.Float c.summary.Kf_serve.Driver.throughput_rps );
      ("p50_us", Kf_obs.Json.Float (q 0.5));
      ("p99_us", Kf_obs.Json.Float (q 0.99));
      ("batches", Kf_obs.Json.Int c.stats.Kf_serve.Service.batches);
      ( "mean_batch",
        Kf_obs.Json.Float
          (Kf_obs.Histogram.mean c.stats.Kf_serve.Service.occupancy) );
      ("shed", Kf_obs.Json.Int c.summary.Kf_serve.Driver.shed);
      ("failed", Kf_obs.Json.Int c.summary.Kf_serve.Driver.failed);
      ( "speedup_vs_window0",
        Kf_obs.Json.Float
          (c.summary.Kf_serve.Driver.throughput_rps /. window0_rps) );
    ]

(* OCaml 5 minor collections are a stop-the-world rendezvous across
   domains; at the default 256k-word minor heap the serving loop's
   allocation rate triggers hundreds of collections per second whose
   synchronisation cost dominates the measurement on a single core.
   The per-domain minor-heap arena is sized at process startup, so
   [Gc.set] at run time cannot grow it — the suite re-execs itself once
   with OCAMLRUNPARAM to take the collector out of the numbers. *)
let ensure_minor_heap () =
  let marker = "KF_SERVE_BENCH_REEXEC" in
  if Sys.getenv_opt marker = None then begin
    let keep e =
      not (String.length e >= 14 && String.sub e 0 14 = "OCAMLRUNPARAM=")
    in
    let kept = List.filter keep (Array.to_list (Unix.environment ())) in
    let env = Array.of_list (kept @ [ "OCAMLRUNPARAM=s=8M"; marker ^ "=1" ]) in
    try Unix.execve Sys.executable_name Sys.argv env
    with Unix.Unix_error _ -> () (* fall through and measure as-is *)
  end

let () =
  ensure_minor_heap ();
  let small = Array.exists (( = ) "--small") Sys.argv in
  let duration_s = if small then 0.25 else 1.0 in
  let rng = Rng.create 7 in
  let weights =
    {
      Kf_ml.Algorithm.vecs = [| Gen.vector rng cols |];
      cols;
      extra = [];
    }
  in
  Util.header "serving: micro-batch window vs throughput (host engine)";
  let rps (c : cell) = c.summary.Kf_serve.Driver.throughput_rps in
  (* Same noise discipline as the telemetry ablation below: one shot per
     cell is hostage to whatever the GC and the OS scheduler were doing
     that quarter-second, and the adaptive_vs_best_fixed ratios divide
     two such shots.  Each (pool, concurrency) group therefore runs its
     windows interleaved over three rounds and every window keeps its
     best round — drift taxes all windows of a group equally. *)
  let rounds = 5 in
  let cells =
    List.concat_map
      (fun pool_size ->
        let pool = Par.Pool.create ~size:pool_size () in
        let cells =
          List.concat_map
            (fun concurrency ->
              let best = Array.make (List.length windows) None in
              for _round = 1 to rounds do
                List.iteri
                  (fun i window ->
                    let c =
                      run_cell ~pool ~pool_size ~window ~concurrency
                        ~duration_s ~weights
                    in
                    match best.(i) with
                    | Some prev when rps prev >= rps c -> ()
                    | _ -> best.(i) <- Some c)
                  windows
              done;
              let cells = List.filter_map Fun.id (Array.to_list best) in
              List.iter
                (fun c ->
                  Util.row
                    "pool=%d window=%s conc=%2d: %8.0f req/s  p99 %6.0f us  \
                     mean batch %5.1f"
                    pool_size (win_label c.window) concurrency (rps c)
                    (Kf_obs.Histogram.quantile
                       c.summary.Kf_serve.Driver.latency_us 0.99)
                    (Kf_obs.Histogram.mean
                       c.stats.Kf_serve.Service.occupancy))
                cells;
              cells)
            concurrencies
        in
        Par.Pool.shutdown pool;
        cells)
      pool_sizes
  in
  let window0_rps ~pool ~concurrency =
    let c =
      List.find
        (fun c -> c.pool = pool && c.concurrency = concurrency
                  && c.window = Fixed 0)
        cells
    in
    Float.max 1e-9 (rps c)
  in
  List.iter
    (fun pool ->
      let base = window0_rps ~pool ~concurrency:32 in
      let best =
        List.fold_left
          (fun acc c ->
            match c.window with
            | Fixed w when c.pool = pool && c.concurrency = 32 && w > 0 ->
                Float.max acc (rps c /. base)
            | _ -> acc)
          0.0 cells
      in
      Util.note "pool=%d: best batched speedup at concurrency 32: %.2fx" pool
        best)
    pool_sizes;
  (* The tentpole's acceptance ratio: adaptive throughput over the best
     fixed window, per (pool, concurrency).  Landed in the meta block so
     the regression gate can hold every cell to >= 0.95x without
     guessing which fixed window won. *)
  let adaptive_vs_best_fixed =
    List.concat_map
      (fun pool ->
        List.map
          (fun concurrency ->
            let select f =
              List.filter
                (fun c ->
                  c.pool = pool && c.concurrency = concurrency && f c.window)
                cells
            in
            let best_fixed =
              List.fold_left
                (fun acc c -> Float.max acc (rps c))
                1e-9
                (select (function Fixed _ -> true | Adaptive -> false))
            in
            let adaptive =
              match select (function Adaptive -> true | Fixed _ -> false) with
              | [ c ] -> rps c
              | _ -> 0.0
            in
            let ratio = adaptive /. best_fixed in
            Util.note "pool=%d conc=%2d: adaptive = %.2fx best fixed" pool
              concurrency ratio;
            Kf_obs.Json.Obj
              [
                ("pool", Kf_obs.Json.Int pool);
                ("concurrency", Kf_obs.Json.Int concurrency);
                ("ratio", Kf_obs.Json.Float ratio);
              ])
          concurrencies)
      pool_sizes
  in
  (* Telemetry overhead ablation: one fixed cell (pool 1, window 50 us,
     concurrency 8) re-run with the registry off, on, and with tracing
     at full vs 10% sampling.  The acceptance bar is metrics <= 2% and
     sampled tracing < 1% of throughput; the numbers land in the meta
     block so the regression gate's artefact doubles as the record. *)
  (* Throughput noise (GC, scheduler, thermal drift) swamps a
     single-shot measurement at these cell durations, so the four
     configurations are interleaved round-robin and each keeps its best
     round — drift then hits every config equally, and the max is the
     least contaminated estimate.  Trace buffers are cleared after each
     traced round so one config's event backlog cannot tax the next. *)
  let overhead_duration = Float.max duration_s 0.5 in
  let overhead_one () =
    let pool = Par.Pool.create ~size:1 () in
    let c =
      run_cell ~pool ~pool_size:1 ~window:(Fixed 50) ~concurrency:8
        ~duration_s:overhead_duration ~weights
    in
    Par.Pool.shutdown pool;
    c.summary.Kf_serve.Driver.throughput_rps
  in
  let configs =
    [|
      ( (fun () -> Kf_obs.Metrics.set_enabled false),
        fun () -> Kf_obs.Metrics.set_enabled true );
      ((fun () -> ()), fun () -> ());
      ( (fun () ->
          Kf_obs.Trace.enable ();
          Kf_obs.Trace.set_sample 1.0),
        fun () ->
          Kf_obs.Trace.disable ();
          Kf_obs.Trace.clear () );
      ( (fun () ->
          Kf_obs.Trace.enable ();
          Kf_obs.Trace.set_sample ~seed:1 0.1),
        fun () ->
          Kf_obs.Trace.disable ();
          Kf_obs.Trace.set_sample 1.0;
          Kf_obs.Trace.clear () );
    |]
  in
  let best = Array.make (Array.length configs) 0.0 in
  for _round = 1 to 3 do
    Array.iteri
      (fun i (setup, teardown) ->
        setup ();
        let rps = Fun.protect ~finally:teardown overhead_one in
        best.(i) <- Float.max best.(i) rps)
      configs
  done;
  let rps_plain = best.(0) in
  let rps_metrics = best.(1) in
  let rps_trace_full = best.(2) in
  let rps_trace_sampled = best.(3) in
  let pct base v = (base -. v) /. Float.max 1e-9 base *. 100.0 in
  let metrics_overhead_pct = pct rps_plain rps_metrics in
  let trace_full_pct = pct rps_metrics rps_trace_full in
  let trace_sampled_pct = pct rps_metrics rps_trace_sampled in
  Util.note
    "telemetry overhead: metrics %+.2f%%, trace full %+.2f%%, trace@0.1 \
     %+.2f%%"
    metrics_overhead_pct trace_full_pct trace_sampled_pct;
  let doc =
    Kf_obs.Json.Obj
      [
        ( "meta",
          Kf_obs.Json.Obj
            [
              ("suite", Kf_obs.Json.Str "serve");
              ("engine", Kf_obs.Json.Str "host");
              ("small", Kf_obs.Json.Bool small);
              ( "telemetry",
                Kf_obs.Json.Obj
                  [
                    ("rps_plain", Kf_obs.Json.Float rps_plain);
                    ("rps_metrics", Kf_obs.Json.Float rps_metrics);
                    ("rps_trace_full", Kf_obs.Json.Float rps_trace_full);
                    ("rps_trace_sampled", Kf_obs.Json.Float rps_trace_sampled);
                    ( "metrics_overhead_pct",
                      Kf_obs.Json.Float metrics_overhead_pct );
                    ("trace_full_overhead_pct", Kf_obs.Json.Float trace_full_pct);
                    ( "trace_sampled_overhead_pct",
                      Kf_obs.Json.Float trace_sampled_pct );
                  ] );
              ("duration_s", Kf_obs.Json.Float duration_s);
              ("max_batch", Kf_obs.Json.Int max_batch);
              ("window_cap_us", Kf_obs.Json.Int window_cap_us);
              ( "adaptive_vs_best_fixed",
                Kf_obs.Json.List adaptive_vs_best_fixed );
              ( "model",
                Kf_obs.Json.Obj
                  [
                    ("algorithm", Kf_obs.Json.Str "lr");
                    ("cols", Kf_obs.Json.Int cols);
                  ] );
            ] );
        ( "cells",
          Kf_obs.Json.List
            (List.map
               (fun c ->
                 cell_json
                   ~window0_rps:
                     (window0_rps ~pool:c.pool ~concurrency:c.concurrency)
                   c)
               cells) );
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  Kf_obs.Json.to_channel oc doc;
  close_out oc;
  print_endline "wrote BENCH_serve.json"
