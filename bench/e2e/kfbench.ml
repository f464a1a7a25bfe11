(* End-to-end benchmark: time-to-solution on three training workloads
   and open-loop serving on one, all on the Host engine.

     dune exec bench/e2e/kfbench.exe -- --seed 1            # all workloads
     dune exec bench/e2e/kfbench.exe -- --seed 1 --traced   # + per-layer pass
     dune exec bench/e2e/kfbench.exe -- --workload graphemb --seed 2 \
       --seconds 20 --trace 0                               # one run

   Every run measures the library's defaults: KF_DOMAINS = the CPU count,
   no other KF_* variable and the runtime's default GC settings.  Without
   [--workload] every workload runs in its own child process and a
   summary table follows.  A single run prints its human-readable lines
   and then, as its last line, one JSON object with the metrics of
   BENCHMARK.json: the end-to-end ones with [--trace 0], the per-layer
   ones with [--trace 1].  See README.md. *)

module W = Workloads
module Trace = Kf_obs.Trace

let workload_names = Harness.workloads

type ctx = { seed : int; seconds : float; smoke : bool; dir : string }

(* A run measures for [--seconds]; a smoke run only its minimum count. *)
let budget_ns ctx = if ctx.smoke then 0 else int_of_float (ctx.seconds *. 1e9)

let say fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

let ms = Probes.ms_of_ns

let us ns = ns /. 1e3

(* --- child processes ------------------------------------------------------ *)

(* Run this executable with [args], echoing its standard output line by
   line after [prefix]; returns the exit status and the lines. *)
let run_self ?(prefix = "") ~echo args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read acc =
    match input_line ic with
    | l ->
        if echo then say "%s%s" prefix l;
        read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, lines)

let last_line lines = List.nth_opt lines (List.length lines - 1)

(* The triad runs in a child so its 96 MiB of arrays never count toward
   the workload's peak RSS. *)
let triad () =
  match run_self ~echo:false [ "--triad" ] with
  | Unix.WEXITED 0, lines -> float_of_string (Option.get (last_line lines))
  | _ -> failwith "triad probe failed"

(* --- drift guard ---------------------------------------------------------- *)

type drift = { triad0 : float; triad1 : float; steal : float }

(* Triad bandwidth and CPU steal around [f]; a run whose two triad
   readings differ by more than 10% is reported as drifted. *)
let with_drift_guard f =
  let triad0 = triad () and j0 = Probes.cpu_jiffies () in
  let r = f ~triad0 in
  let triad1 = triad () and j1 = Probes.cpu_jiffies () in
  let d = { triad0; triad1; steal = Probes.steal_frac ~before:j0 ~after:j1 } in
  let change = (triad1 -. triad0) /. triad0 in
  say "drift: triad %.2f -> %.2f GB/s (%+.1f%%), steal %.2f%%: %s" triad0 triad1
    (100.0 *. change) (100.0 *. d.steal)
    (if Float.abs change > 0.10 then "drifted" else "steady");
  say "drift: triad arrays 3 x %d MiB, LLC %s: arrays of 4 x LLC are not possible \
       here (README.md)"
    (Probes.triad_bytes / 3 / 1024 / 1024)
    (match Probes.llc_bytes () with
    | Some b -> Printf.sprintf "%d MiB" (b / 1024 / 1024)
    | None -> "unknown");
  (r, d)

let env_metrics d =
  [
    ("env.triad_gbps_start", d.triad0);
    ("env.triad_gbps_end", d.triad1);
    ("env.steal_frac", d.steal);
  ]

(* --- set-up --------------------------------------------------------------- *)

(* Set up [reps] times, dropping each earlier copy first; [setup_s] is
   the median and the last copy is the one measured. *)
let setups ~reps ~teardown make =
  let last = ref None in
  let times =
    Array.init reps (fun _ ->
        Option.iter teardown !last;
        last := None;
        Gc.compact ();
        let v, dt = Probes.time_ns make in
        last := Some v;
        float_of_int dt /. 1e9)
  in
  say "setup: %s s (median of %d)"
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") times)))
    reps;
  (Option.get !last, Harness.median times)

(* --- result line ---------------------------------------------------------- *)

let emit ~correct ~attempted ~failed spec values =
  let metrics =
    List.map
      (fun (m : Harness.metric) ->
        match List.assoc_opt m.name values with
        | Some v -> (m, v)
        | None -> failwith ("metric not measured: " ^ m.name))
      spec
  in
  List.iter
    (fun ((m : Harness.metric), v) -> say "  %-30s %14.6g %s" m.name v m.unit_)
    metrics;
  say "%s" (Harness.result_line ~correct ~attempted ~failed metrics)

(* Print the solve times' deciles, median and p90 (not gated) and
   whether at least ten samples lie beyond p90. *)
let describe_solves samples_ns =
  let s = Harness.sorted samples_ns in
  let n = Array.length s in
  let at p = Harness.percentile s p /. 1e6 in
  say "solve time: %d samples, %d beyond p90%s" n (Harness.beyond ~n 0.9)
    (if Harness.supported ~n 0.9 then "" else " (fewer than 10: p90 unsupported)");
  say "solve time: deciles %s ms"
    (String.concat " "
       (List.init 11 (fun i -> Printf.sprintf "%.2f" (at (float_of_int i /. 10.0)))));
  say "solve time: median %.3f ms, p90 %.3f ms (not gated)" (at 0.5) (at 0.9)

(* --- per-layer pass ------------------------------------------------------- *)

(* One traced call of a probe inside a [bench.<name>] span, so the trace
   shows where the probe sits. *)
let show name f =
  Trace.enable ();
  Trace.with_span ("bench." ^ name) f;
  Trace.disable ()

(* Per-call time of [f], measured with tracing off. *)
let probe name f =
  let ns = Probes.per_call_ns f in
  show name f;
  ns

(* Per span name: count, total ns, self ns — summed over every traced
   unit of work and probe call. *)
let self_rows = Hashtbl.create 32

let recorded_rows () =
  Harness.self_times
    (List.filter_map
       (function
         | Trace.Span { name; ts_ns; dur_ns; tid; _ } ->
             Some { Harness.s_name = name; tid; ts = ts_ns; dur = dur_ns }
         | _ -> None)
       (Trace.events ()))

(* Fold the spans recorded so far into the table and drop them. *)
let fold_trace () =
  List.iter
    (fun (r : Harness.self_row) ->
      let c, t, s = try Hashtbl.find self_rows r.r_name with Not_found -> (0, 0, 0) in
      Hashtbl.replace self_rows r.r_name (c + r.count, t + r.total_ns, s + r.self_ns))
    (recorded_rows ());
  Trace.clear ()

(* Share of the traced solves' time spent outside executor ops (the
   solver's Level-1 work and bookkeeping), from the table plus what is
   still recorded. *)
let unattributed_frac () =
  let total prefix =
    Hashtbl.fold
      (fun n (_, t, _) a -> if String.starts_with ~prefix n then a + t else a)
      self_rows 0
    + List.fold_left
        (fun a (r : Harness.self_row) ->
          if String.starts_with ~prefix r.r_name then a + r.total_ns else a)
        0 (recorded_rows ())
  in
  1.0 -. (float_of_int (total "executor.") /. float_of_int (Stdlib.max 1 (total "bench.solve")))

(* Write the Chrome trace of what is recorded now (the last traced unit
   and every probe call), fold it into the table, and print and write
   the table. *)
let finish_trace ctx name ~unit_name ~units =
  let chrome = Filename.concat ctx.dir (name ^ ".trace.json") in
  Kf_obs.Chrome.write_file chrome;
  fold_trace ();
  let rows =
    Hashtbl.fold (fun n (c, t, s) l -> (n, c, t, s) :: l) self_rows []
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  let path = Filename.concat ctx.dir (name ^ ".layers.tsv") in
  let oc = open_out path in
  Printf.fprintf oc "span\tcount\ttotal_ms\tself_ms\tself_ms_per_%s\n" unit_name;
  say "per-layer self time over %d traced %ss (%s, chrome trace %s):" units unit_name
    path chrome;
  say "  %-28s %8s %12s %12s %14s" "span" "count" "total ms" "self ms"
    ("self ms/" ^ unit_name);
  List.iter
    (fun (n, c, t, s) ->
      let per = ms s /. float_of_int (Stdlib.max 1 units) in
      Printf.fprintf oc "%s\t%d\t%.6f\t%.6f\t%.6f\n" n c (ms t) (ms s) per;
      say "  %-28s %8d %12.3f %12.3f %14.4f" n c (ms t) (ms s) per)
    rows;
  close_out oc

let executor_ops = Kf_obs.Counter.make "executor.ops"

(* [traced ()] and [untraced ()] each time one unit of work and return
   its cost.  Pairs alternate which side runs first, at least
   [min_pairs] of them and until [budget_ns] has passed, so the machine's
   changes of speed reach both sides alike.  The spans of every traced
   unit but the last are folded into the table as the next pair starts.
   Returns the metrics and the number of pairs. *)
let overhead_pairs ~min_pairs ~budget_ns ~traced ~untraced =
  let t0 = Probes.now_ns () in
  let samples = ref [] and pairs = ref 0 in
  while !pairs < min_pairs || Probes.now_ns () - t0 < budget_ns do
    if !pairs > 0 then fold_trace ();
    let u, t =
      if !pairs mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    samples := (100.0 *. (t -. u) /. u) :: !samples;
    incr pairs
  done;
  let q1, q2, q3 = Harness.quartiles (Array.of_list !samples) in
  say "trace overhead: median %+.2f%%, quartiles %+.2f%% .. %+.2f%% over %d pairs" q2 q1
    q3 !pairs;
  ( [ ("trace.overhead_pct", q2); ("trace.overhead_pct_q1", q1); ("trace.overhead_pct_q3", q3) ],
    !pairs )

(* Probes every workload shares.  [host_stats] was the Host_stats sink
   around [host_units] units of work (solves or requests) lasting
   [sink_ns] in all. *)
let layer_metrics ctx (l : W.layers) ~triad0 ~host_stats ~host_units ~sink_ns =
  let forkjoin = probe "pool.run_workers" (fun () -> Par.Pool.run_workers l.pool ignore) in
  let exec, kern, dispatch = Probes.paired_ns l.executor_call l.kernel_call in
  show "executor" l.executor_call;
  show "kernel" l.kernel_call;
  let unfused = probe "unfused" l.unfused_call in
  let seq = probe "seq_ref" l.seq_ref_call in
  let guard =
    probe "guard.check_vec" (fun () -> Kf_resil.Guard.check_vec ~point:"bench" l.guard_vec)
  in
  let path = Filename.concat ctx.dir "probe.ckpt" in
  let ckpt_ns =
    probe "ckpt.write" (fun () ->
        Kf_resil.Ckpt.write ~path ~algorithm:l.ckpt.algorithm ~iteration:l.ckpt.iteration
          l.ckpt.payload)
  in
  let ckpt_bytes = (Unix.stat path).st_size in
  Sys.remove path;
  let st : Kf_obs.Host_stats.t = host_stats in
  let per_unit v = float_of_int v /. float_of_int host_units in
  let gbps = float_of_int l.kernel_bytes /. kern in
  say "kernel: %s, %d computed bytes per call, %.2f GB/s" l.kernel_label l.kernel_bytes
    gbps;
  [
    ("pool.forkjoin_us", us forkjoin);
    ("host.jobs_per_unit", per_unit st.jobs);
    ( "host.busy_frac",
      float_of_int (Kf_obs.Host_stats.busy_total_ns st)
      /. float_of_int (st.domains * sink_ns) );
    ("host.imbalance", Kf_obs.Host_stats.load_imbalance st);
    ("host.merge_bytes_per_unit", per_unit st.merge_bytes);
    ("host.acc_bytes_per_unit", per_unit st.acc_bytes);
    ("host.layout_builds_per_unit", per_unit st.layout_builds);
    ("executor.call_us", us exec);
    ("executor.dispatch_us", us dispatch);
    ("kernel.call_us", us kern);
    ("kernel.unfused_us", us unfused);
    ("kernel.seq_ref_us", us seq);
    ("kernel.speedup_vs_seq", seq /. kern);
    ("kernel.gbps_computed", gbps);
    ("kernel.triad_frac", gbps /. triad0);
    ("guard.scan_us", us guard);
    ("ckpt.write_ms", ckpt_ns /. 1e6);
    ("ckpt.bytes", float_of_int ckpt_bytes);
  ]

(* --- training workloads --------------------------------------------------- *)

let checksum (s : W.solve) = Kf_resil.Ckpt.checksum_floats s.weights

let gate (t : W.training) warm =
  match t.check warm with
  | None ->
      say "gate: ok against the sequential reference";
      true
  | Some msg ->
      say "gate: FAILED: %s" msg;
      false

(* A training workload set up and gated, shared by both passes.  [solve]
   times one solve inside a [bench.solve] span (recorded only while
   tracing is on) and counts it; [finish] prints the result line, with
   every solve whose weights checksum differs from the warm-up's counted
   as failed. *)
type trainer = {
  t : W.training;
  warm : W.solve;
  setup_s : float;
  solve : unit -> W.solve * float;
  finish : Harness.metric list -> (string * float) list -> bool;
}

let prepare_training ctx name make ~reps =
  let (t, warm), setup_s =
    setups ~reps ~teardown:ignore (fun () ->
        let t : W.training = make ~seed:ctx.seed ~dir:ctx.dir in
        (t, t.solve ()))
  in
  say "%s: %s" name t.describe;
  say "kernel: %s" t.layers.kernel_label;
  let gate_ok = gate t warm in
  let sum0 = checksum warm in
  let attempted = ref 0 and changed = ref 0 in
  let solve () =
    let s, dt = Probes.time_ns (fun () -> Trace.with_span "bench.solve" t.solve) in
    incr attempted;
    if checksum s <> sum0 then incr changed;
    (s, float_of_int dt)
  in
  let finish spec values =
    say "solves: %d of %d iterations each; weights checksum %s, changed in %d" !attempted
      warm.iterations sum0 !changed;
    let ok = gate_ok && !changed = 0 in
    emit ~correct:ok ~attempted:!attempted
      ~failed:(if gate_ok then !changed else !attempted)
      spec values;
    ok
  in
  { t; warm; setup_s; solve; finish }

(* Consecutive solves over which the best sustained rate is taken. *)
let stretch = 5

let run_training ctx name make =
  let p = prepare_training ctx name make ~reps:(if ctx.smoke then 1 else 3) in
  (* at least 100 solves, so ten lie beyond p90; never past 100 s *)
  let min_solves = if ctx.smoke then 3 else 100 in
  let budget_ns = budget_ns ctx in
  let cap_ns = 100_000_000_000 in
  let times, _ =
    with_drift_guard (fun ~triad0:_ ->
        let times = ref [] and n = ref 0 in
        let t0 = Probes.now_ns () in
        let elapsed () = Probes.now_ns () - t0 in
        while (!n < min_solves || elapsed () < budget_ns) && elapsed () < cap_ns do
          times := snd (p.solve ()) :: !times;
          incr n
        done;
        Array.of_list (List.rev !times))
  in
  describe_solves times;
  p.finish Harness.end_to_end
    [
      ("setup_s", p.setup_s);
      ("latency_ms_best", Array.fold_left Float.min infinity times /. 1e6);
      ("throughput_per_s_best", Harness.best_rate times ~k:stretch);
      ("peak_rss_mb", Probes.peak_rss_mb ());
    ]

let run_training_traced ctx name make =
  let p = prepare_training ctx name make ~reps:1 in
  let traced_solve () =
    Trace.enable ();
    let r = p.solve () in
    Trace.disable ();
    r
  in
  let (values, pairs), drift =
    with_drift_guard (fun ~triad0 ->
        Trace.clear ();
        let overhead, pairs =
          overhead_pairs ~min_pairs:(if ctx.smoke then 2 else 10) ~budget_ns:(budget_ns ctx)
            ~traced:(fun () -> snd (traced_solve ()))
            ~untraced:(fun () -> snd (p.solve ()))
        in
        say "solver: unattributed_frac %.4f (share of traced solve time outside \
             executor ops)"
          (unattributed_frac ());
        let units = 3 in
        let st = Kf_obs.Host_stats.create ~domains:(Par.Pool.size p.t.layers.pool) in
        let ops0 = Kf_obs.Counter.value executor_ops in
        let solves =
          Kf_obs.Host_stats.with_sink st (fun () -> List.init units (fun _ -> p.solve ()))
        in
        let calls = float_of_int (Kf_obs.Counter.value executor_ops - ops0) in
        let sink_ns = int_of_float (List.fold_left (fun a (_, dt) -> a +. dt) 0.0 solves) in
        say "solver: %d iterations, %d pattern calls, %.3f ms per iteration" p.warm.iterations
          p.warm.pattern_calls
          (ms sink_ns /. float_of_int (units * Stdlib.max 1 p.warm.iterations));
        let sess = Kf_ml.Session.create ~engine:W.host W.device ~algorithm:"bench" in
        let a = Matrix.Gen.vector (Matrix.Rng.create 3) p.t.vec_len in
        let b = Matrix.Gen.vector (Matrix.Rng.create 4) p.t.vec_len in
        let dot = probe "session.dot" (fun () -> ignore (Kf_ml.Session.dot sess a b)) in
        let axpy = probe "session.axpy" (fun () -> ignore (Kf_ml.Session.axpy sess 0.5 a b)) in
        say "session: dot %.3f us, axpy %.3f us on %d-element vectors" (us dot) (us axpy)
          p.t.vec_len;
        ( overhead
          @ ("executor.calls_per_unit", calls /. float_of_int units)
            :: layer_metrics ctx p.t.layers ~triad0 ~host_stats:st ~host_units:units ~sink_ns,
          pairs ))
  in
  finish_trace ctx name ~unit_name:"solve" ~units:pairs;
  p.finish Harness.per_layer (env_metrics drift @ values)

(* --- serve-lr ------------------------------------------------------------- *)

(* 5,000 requests/s: each request arrives alone, so per-request cost
   (submit, scheduler wake-up, dispatch, scatter) dominates.  At 50,000/s
   the generator and scheduler stalls a shared host inflicts every few
   tens of ms leave backlogs that push p90 from ~15 us to ~2 ms in some
   minutes and not others (README.md, "Noise"). *)
let rate = 5_000.0

let inflight = 32

let failures (tl : Loadgen.tally) = tl.shed + tl.failed + tl.wrong

(* A started service, shared by both passes.  [open_loop] and
   [closed_loop] send traffic and keep its tallies; [s_finish] shuts the
   service down and prints the result line, with every shed, failed or
   wrong request counted as failed. *)
type server = {
  serving : W.serving;
  s_setup_s : float;
  open_loop : duration_s:float -> Loadgen.open_result;
  closed_loop : duration_s:float -> float;
  s_finish : Harness.metric list -> (string * float) list -> bool;
}

let prepare_serve ctx ~reps =
  let serving, s_setup_s =
    setups ~reps
      ~teardown:(fun (s : W.serving) -> Kf_serve.Service.shutdown s.svc)
      (fun () ->
        let s = W.serve_lr ~seed:ctx.seed ~dir:ctx.dir in
        (* 0.5 s of traffic: the adaptive window settles, the heap grows *)
        ignore (Loadgen.open_loop s.svc s.payload ~rate ~duration_s:0.5);
        s)
  in
  say "serve-lr: %s" serving.s_describe;
  let tallies = ref [] in
  let open_loop ~duration_s =
    let r = Loadgen.open_loop serving.svc serving.payload ~rate ~duration_s in
    tallies := r.o_tally :: !tallies;
    r
  in
  let closed_loop ~duration_s =
    let tl, rps = Loadgen.closed_loop serving.svc serving.payload ~inflight ~duration_s in
    tallies := tl :: !tallies;
    rps
  in
  let s_finish spec values =
    Kf_serve.Service.shutdown serving.svc;
    let sum f = List.fold_left (fun a t -> a + f t) 0 !tallies in
    let wrong = sum (fun (t : Loadgen.tally) -> t.wrong) in
    emit ~correct:(wrong = 0)
      ~attempted:(sum (fun (t : Loadgen.tally) -> t.attempted))
      ~failed:(sum failures) spec values;
    wrong = 0
  in
  { serving; s_setup_s; open_loop; closed_loop; s_finish }

let describe_open (r : Loadgen.open_result) =
  let tl = r.o_tally in
  let lag = Harness.sorted r.lag_ns in
  let lat p = Harness.latency_percentile r.latency_ns p /. 1e6 in
  say "open loop: %d sent at %.0f/s, %d served, %d shed, %d failed, %d wrong" tl.attempted
    rate tl.served tl.shed tl.failed tl.wrong;
  say "open loop: goodput_ratio %.5f (served within 1 ms of due); whole-run latency p50 \
       %.4f p90 %.4f p99 %.4f ms"
    (Loadgen.goodput r ~limit_ns:1e6)
    (lat 0.5) (lat 0.9) (lat 0.99);
  say "open loop: generator lag p99 %.1f us, max %.1f us"
    (Harness.percentile lag 0.99 /. 1e3)
    (Harness.percentile lag 1.0 /. 1e3)

(* The run alternates open-loop windows with closed-loop rounds, so a
   change in the machine's speed during the run reaches both the same
   way, and the quietest window and the fastest round are taken.  A short
   unmeasured open-loop stretch after each round lets the adaptive
   window, grown under the closed loop, decay again. *)
let run_serve ctx =
  let sv = prepare_serve ctx ~reps:(if ctx.smoke then 1 else 3) in
  let cycles = if ctx.smoke then 2 else 20 in
  let open_s, round_s =
    if ctx.smoke then (0.3, 0.1)
    else
      let c = float_of_int cycles in
      (ctx.seconds *. 2.0 /. 3.0 /. c, ctx.seconds /. 3.0 /. c)
  in
  let cycles, _ =
    with_drift_guard (fun ~triad0:_ ->
        List.init cycles (fun _ ->
            let w = sv.open_loop ~duration_s:open_s in
            let rps = sv.closed_loop ~duration_s:round_s in
            ignore (sv.open_loop ~duration_s:0.05);
            (w, rps)))
  in
  describe_open (Loadgen.concat (List.map fst cycles));
  let rps = Array.of_list (List.map snd cycles) in
  say "closed loop: %d in flight, %d rounds of %.2f s: %s req/s" inflight
    (Array.length rps) round_s
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.0f") rps)));
  let window_ms p =
    Array.of_list
      (List.map (fun ((w : Loadgen.open_result), _) ->
           Harness.latency_percentile w.latency_ns p /. 1e6) cycles)
  in
  let p50 = window_ms 0.5 and p90 = window_ms 0.9 in
  say "latency: over %d open-loop windows of %.2f s, window p50 best %.4f median %.4f ms, \
       window p90 best %.4f median %.4f ms"
    (Array.length p50) open_s
    (Array.fold_left Float.min infinity p50) (Harness.median p50)
    (Array.fold_left Float.min infinity p90) (Harness.median p90);
  sv.s_finish Harness.end_to_end
    [
      ("setup_s", sv.s_setup_s);
      ("latency_ms_best", Array.fold_left Float.min infinity p50);
      ("throughput_per_s_best", Array.fold_left Float.max 0.0 rps);
      ("peak_rss_mb", Probes.peak_rss_mb ());
    ]

let run_serve_traced ctx =
  let sv = prepare_serve ctx ~reps:1 in
  let svc = sv.serving.svc and layers = sv.serving.s_layers in
  let window_s = if ctx.smoke then 0.2 else 0.4 in
  let p50 r = Harness.median (Loadgen.served_latencies r) in
  let (values, pairs), drift =
    with_drift_guard (fun ~triad0 ->
        (* untraced traffic under a Host_stats sink, for the service's
           and the pool's own counters *)
        let st0 = Kf_serve.Service.stats svc in
        let ops0 = Kf_obs.Counter.value executor_ops in
        let hs = Kf_obs.Host_stats.create ~domains:(Par.Pool.size layers.pool) in
        let r, sink_ns =
          Probes.time_ns (fun () ->
              Kf_obs.Host_stats.with_sink hs (fun () ->
                  sv.open_loop ~duration_s:(if ctx.smoke then 0.3 else 2.0)))
        in
        let st1 = Kf_serve.Service.stats svc in
        let requests = r.o_tally.attempted in
        let ops = Kf_obs.Counter.value executor_ops - ops0 in
        describe_open r;
        let h f = Kf_obs.Histogram.diff ~after:(f st1) ~before:(f st0) in
        let queue = h (fun st -> st.Kf_serve.Service.queue_us) in
        let batches = st1.batches - st0.batches in
        say "service: submit p50 %.3f us, window %d us, queue p50 %.1f us p99 %.1f us"
          (Harness.median r.submit_ns /. 1e3)
          (Kf_serve.Service.current_window_us svc)
          (Kf_obs.Histogram.quantile queue 0.5)
          (Kf_obs.Histogram.quantile queue 0.99);
        say "service: %d batches of %.2f rows, %.2f us exec per batch, %d shed, %d failures"
          batches
          (Kf_obs.Histogram.mean (h (fun st -> st.occupancy)))
          ((st1.exec_ms -. st0.exec_ms) *. 1e3 /. float_of_int (Stdlib.max 1 batches))
          (st1.shed - st0.shed) (st1.failures - st0.failures);
        Trace.clear ();
        let overhead, pairs =
          overhead_pairs ~min_pairs:(if ctx.smoke then 2 else 10) ~budget_ns:(budget_ns ctx)
            ~traced:(fun () ->
              Trace.enable ();
              let r =
                Trace.with_span "bench.open_loop" (fun () -> sv.open_loop ~duration_s:window_s)
              in
              Trace.disable ();
              p50 r)
            ~untraced:(fun () -> p50 (sv.open_loop ~duration_s:window_s))
        in
        ( overhead
          @ ("executor.calls_per_unit", float_of_int ops /. float_of_int (Stdlib.max 1 requests))
            :: layer_metrics ctx layers ~triad0 ~host_stats:hs ~host_units:requests ~sink_ns,
          pairs ))
  in
  finish_trace ctx "serve-lr" ~unit_name:"window" ~units:pairs;
  sv.s_finish Harness.per_layer (env_metrics drift @ values)

(* --- one run --------------------------------------------------------------- *)

(* The environment every run measures in: KF_DOMAINS pinned to the CPU
   count, every other KF_* knob and OCAMLRUNPARAM removed, so each
   workload runs the library's defaults and the runtime's default GC
   settings.  A process started in any other environment re-executes
   itself in this one. *)
let measured_env () =
  let keep e =
    not
      (String.starts_with ~prefix:"KF_" e
      || String.starts_with ~prefix:"OCAMLRUNPARAM=" e)
  in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    [| Printf.sprintf "KF_DOMAINS=%d" (Probes.nproc ()) |]

let ensure_measured_env () =
  let env = measured_env () in
  let set a = List.sort compare (Array.to_list a) in
  if set env <> set (Unix.environment ()) then
    Unix.execve Sys.executable_name Sys.argv env

let run_one ctx ~name ~trace =
  say "kfbench %s: seed %d, %.0f s, %s, %d domains, default GC" name ctx.seed ctx.seconds
    (if trace then "traced per-layer pass" else "end-to-end pass")
    (Probes.nproc ());
  let training make =
    if trace then run_training_traced ctx name make else run_training ctx name make
  in
  match name with
  | "lr-cg-tall" -> training W.lr_cg_tall
  | "logreg-wide" -> training W.logreg_wide
  | "graphemb" -> training W.graphemb
  | "serve-lr" -> if trace then run_serve_traced ctx else run_serve ctx
  | _ -> invalid_arg ("unknown workload " ^ name)

(* --- all workloads ---------------------------------------------------------- *)

let value json name =
  match Kf_obs.Json.member "metrics" json with
  | Some m -> (
      match Kf_obs.Json.member name m with
      | Some v -> (
          match Kf_obs.Json.member "value" v with
          | Some (Kf_obs.Json.Float f) -> f
          | Some (Kf_obs.Json.Int i) -> float_of_int i
          | _ -> nan)
      | None -> nan)
  | None -> nan

(* Each workload in its own child process, then a table of every
   metric.  A child that fails its checks, or cannot measure a metric,
   fails the whole run. *)
let run_all ctx ~traced =
  let passes =
    (false, Harness.end_to_end) :: (if traced then [ (true, Harness.per_layer) ] else [])
  in
  let results =
    List.concat_map
      (fun (trace, _) ->
        List.map
          (fun name ->
            let args =
              [
                "--workload"; name; "--seed"; string_of_int ctx.seed; "--seconds";
                Printf.sprintf "%g" ctx.seconds; "--trace"; (if trace then "1" else "0");
              ]
              @ if ctx.smoke then [ "--smoke" ] else []
            in
            let status, lines =
              run_self ~prefix:(Printf.sprintf "[%s] " name) ~echo:true args
            in
            let json =
              match (status, last_line lines) with
              | Unix.WEXITED _, Some l -> (
                  try Some (Kf_obs.Json.parse l) with Kf_obs.Json.Parse_error _ -> None)
              | _ -> None
            in
            (name, trace, status, json))
          workload_names)
      passes
  in
  List.iter
    (fun (trace, (spec : Harness.metric list)) ->
      say "";
      say "%-30s %-6s %s" (if trace then "per-layer" else "end-to-end") "unit"
        (String.concat "" (List.map (Printf.sprintf " %14s") workload_names));
      List.iter
        (fun (m : Harness.metric) ->
          let cells =
            List.filter_map
              (fun (_, t, _, json) ->
                if t <> trace then None
                else
                  Some
                    (match json with
                    | Some j -> Printf.sprintf " %14.6g" (value j m.name)
                    | None -> Printf.sprintf " %14s" "-"))
              results
          in
          say "%-30s %-6s %s" m.name m.unit_ (String.concat "" cells))
        spec)
    passes;
  List.fold_left
    (fun ok (name, trace, status, json) ->
      match (status, json) with
      | Unix.WEXITED 0, Some j when Kf_obs.Json.member "correct" j = Some (Kf_obs.Json.Bool true)
        ->
          ok
      | _ ->
          say "FAILED: %s %s pass" name (if trace then "traced" else "end-to-end");
          false)
    true results

(* --- command line ----------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and traced = ref false and smoke = ref false in
  let triad_only = ref false in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME run one workload (" ^ String.concat ", " workload_names ^ ")");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 is the hold-out seed)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--traced", Arg.Set traced, " all workloads: add the per-layer pass");
      ("--smoke", Arg.Set smoke, " 3 solves / 1 s of traffic at the real sizes");
      ("--triad", Arg.Set triad_only, " print the STREAM triad bandwidth (GB/s) and exit");
    ]
  in
  let usage = "kfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] ..." in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  ensure_measured_env ();
  if !triad_only then Printf.printf "%.6f\n" (Probes.triad_gbps ())
  else begin
    if !seconds <= 0.0 || not (List.mem !trace [ 0; 1 ]) then begin
      prerr_endline usage;
      exit 2
    end;
    let dir = "_kfbench" in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let ctx = { seed = !seed; seconds = !seconds; smoke = !smoke; dir } in
    let ok =
      match !workload with
      | Some name when List.mem name workload_names -> run_one ctx ~name ~trace:(!trace = 1)
      | Some name ->
          prerr_endline ("unknown workload " ^ name);
          exit 2
      | None -> run_all ctx ~traced:!traced
    in
    exit (if ok then 0 else 1)
  end
