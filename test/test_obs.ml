(* Observability layer: span recording and nesting, counter
   monotonicity, Chrome trace-event export validity (checked with a
   self-contained JSON parser, shared via test/helpers — the repo
   deliberately has no JSON dependency), and the Host_stats accounting invariant that per-domain
   rows/nnz sum to the matrix totals whatever the pool size. *)
open Matrix

let device = Gpu_sim.Device.gtx_titan

(* ---- minimal JSON parser (validation only) ---------------------------- *)

(* The parser itself lives in test/helpers/json_helper.ml, shared with
   the CI plan-IR validator (validate_ir.exe). *)
open Json_helper

(* ---- scoped tracing helper -------------------------------------------- *)

(* Tests share the process-wide trace buffers, so every tracing test
   scopes itself: clear, run with tracing on, snapshot, restore. *)
let with_tracing f =
  Kf_obs.Trace.clear ();
  Kf_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Kf_obs.Trace.disable ();
      Kf_obs.Trace.clear ())
    f

let span_names events =
  List.filter_map
    (function Kf_obs.Trace.Span { name; _ } -> Some name | _ -> None)
    events

(* ---- spans ------------------------------------------------------------ *)

let test_span_disabled_records_nothing () =
  Kf_obs.Trace.clear ();
  Kf_obs.Trace.disable ();
  let r = Kf_obs.Trace.with_span "ghost" (fun () -> 17) in
  Alcotest.(check int) "result passes through" 17 r;
  Alcotest.(check int) "no events" 0 (Kf_obs.Trace.event_count ())

let test_span_nesting_and_order () =
  with_tracing @@ fun () ->
  Kf_obs.Trace.with_span "outer" (fun () ->
      Kf_obs.Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Kf_obs.Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 2)));
  let events = Kf_obs.Trace.events () in
  Alcotest.(check (list string))
    "sorted by start: outer first"
    [ "outer"; "inner"; "inner" ] (span_names events);
  (* containment: both inners start and end inside outer *)
  let spans =
    List.filter_map
      (function
        | Kf_obs.Trace.Span { name; ts_ns; dur_ns; _ } ->
            Some (name, ts_ns, ts_ns + dur_ns)
        | _ -> None)
      events
  in
  let _, o_start, o_end =
    List.find (fun (name, _, _) -> name = "outer") spans
  in
  List.iter
    (fun (name, s, e) ->
      if name = "inner" then begin
        Alcotest.(check bool) "inner starts inside outer" true (s >= o_start);
        Alcotest.(check bool) "inner ends inside outer" true (e <= o_end)
      end)
    spans;
  (* the profile tree reconstructs that nesting *)
  let roots = Kf_obs.Profile.build events in
  match roots with
  | [ (_tid, root) ] -> (
      match Hashtbl.find_opt root.Kf_obs.Profile.children "outer" with
      | None -> Alcotest.fail "outer missing from profile tree"
      | Some outer -> (
          Alcotest.(check int) "outer count" 1 outer.Kf_obs.Profile.count;
          match Hashtbl.find_opt outer.Kf_obs.Profile.children "inner" with
          | None -> Alcotest.fail "inner not nested under outer"
          | Some inner ->
              Alcotest.(check int) "inner aggregated" 2
                inner.Kf_obs.Profile.count))
  | roots ->
      Alcotest.failf "expected one profile root, got %d" (List.length roots)

let test_span_survives_exceptions () =
  with_tracing @@ fun () ->
  (try
     Kf_obs.Trace.with_span "raiser" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list string))
    "span recorded despite raise" [ "raiser" ]
    (span_names (Kf_obs.Trace.events ()))

(* ---- counters --------------------------------------------------------- *)

let test_counter_monotonic () =
  let c = Kf_obs.Counter.make "test.monotonic" in
  let v0 = Kf_obs.Counter.value c in
  Kf_obs.Counter.incr c;
  Kf_obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" (v0 + 42) (Kf_obs.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Counter.add: counters are monotonic") (fun () ->
      Kf_obs.Counter.add c (-1));
  Alcotest.(check int) "value unchanged after rejected add" (v0 + 42)
    (Kf_obs.Counter.value c)

let test_counter_registry () =
  let a = Kf_obs.Counter.make "test.same-name" in
  let b = Kf_obs.Counter.make "test.same-name" in
  Kf_obs.Counter.incr a;
  let v = Kf_obs.Counter.value b in
  Kf_obs.Counter.incr b;
  Alcotest.(check int) "same counter" (v + 1) (Kf_obs.Counter.value a);
  Alcotest.(check bool) "registered in snapshot" true
    (List.mem_assoc "test.same-name" (Kf_obs.Counter.all ()))

(* ---- Chrome export ---------------------------------------------------- *)

let test_chrome_json_valid () =
  with_tracing @@ fun () ->
  Kf_obs.Trace.with_span "work"
    ~args:[ ("needs\"escaping\\", "line\nbreak") ]
    (fun () ->
      Kf_obs.Trace.counter_sample "gauge" [ ("d0", 1.5); ("d1", 2.5) ];
      Kf_obs.Trace.instant "marker");
  let text = Kf_obs.Json.to_string (Kf_obs.Chrome.to_json ()) in
  let doc = parse_json text in
  let events =
    match member "traceEvents" doc with
    | Some (JList l) -> l
    | _ -> Alcotest.fail "traceEvents missing or not a list"
  in
  let phase e =
    match member "ph" e with Some (JStr p) -> p | _ -> Alcotest.fail "no ph"
  in
  let count p = List.length (List.filter (fun e -> phase e = p) events) in
  Alcotest.(check int) "one complete span" 1 (count "X");
  Alcotest.(check int) "one counter event" 1 (count "C");
  Alcotest.(check int) "one instant" 1 (count "i");
  Alcotest.(check bool) "process metadata present" true (count "M" >= 1);
  List.iter
    (fun e ->
      match (member "ph" e, member "pid" e) with
      | Some (JStr _), Some (JNum _) -> ()
      | _ -> Alcotest.fail "event missing ph/pid")
    events;
  match member "otherData" doc with
  | Some other -> (
      match member "counters" other with
      | Some (JObj _) -> ()
      | _ -> Alcotest.fail "otherData.counters missing")
  | None -> Alcotest.fail "otherData missing"

let test_chrome_file_roundtrip () =
  with_tracing @@ fun () ->
  Kf_obs.Trace.with_span "io" (fun () -> ignore (Sys.opaque_identity 3));
  let path = Filename.temp_file "kf_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Kf_obs.Chrome.write_file path;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match member "traceEvents" (parse_json text) with
      | Some (JList (_ :: _)) -> ()
      | _ -> Alcotest.fail "written file has no events")

(* ---- Host_stats accounting -------------------------------------------- *)

let pool1 = lazy (Par.Pool.create ~size:1 ())
let pool2 = lazy (Par.Pool.create ~size:2 ())
let pool4 = lazy (Par.Pool.create ~size:4 ())

let pools () =
  [ (1, Lazy.force pool1); (2, Lazy.force pool2); (4, Lazy.force pool4) ]

(* (seed, rows, cols, density, dense) *)
let stats_case =
  QCheck.make
    ~print:(fun (seed, r, c, d, dense) ->
      Printf.sprintf "seed=%d rows=%d cols=%d density=%.3f dense=%b" seed r c
        d dense)
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* rows = int_range 1 200 in
      let* cols = int_range 1 64 in
      let* density = float_range 0.05 0.5 in
      let* dense = bool in
      return (seed, rows, cols, density, dense))

let recoveries () =
  Kf_obs.Counter.value (Kf_obs.Counter.make "resil.retries")
  + Kf_obs.Counter.value (Kf_obs.Counter.make "resil.fallbacks")

(* Host work measured by a sink installed around [call], and whether
   the call recovered from an injected fault (KF_FAULTS): a recovered
   call re-ran kernels, and the sink also counts the failed attempts'
   work. *)
let measured ~domains call =
  let stats = Kf_obs.Host_stats.create ~domains in
  let recoveries0 = recoveries () in
  ignore (Kf_obs.Host_stats.with_sink stats call);
  (stats, recoveries () > recoveries0)

let test_host_stats_totals =
  QCheck.Test.make ~count:40
    ~name:"Host_stats rows/nnz sum to matrix totals across pool sizes"
    stats_case
    (fun (seed, rows, cols, density, dense) ->
      let rng = Rng.create seed in
      let input =
        if dense then Fusion.Executor.Dense (Gen.dense rng ~rows ~cols)
        else
          Fusion.Executor.Sparse (Gen.sparse_uniform rng ~rows ~cols ~density)
      in
      let y = Gen.vector rng cols in
      List.for_all
        (fun (size, pool) ->
          let stats, recovered =
            measured ~domains:size (fun () ->
                Fusion.Executor.pattern ~engine:Fusion.Executor.Host ~pool
                  device input ~y ~alpha:1.0 ())
          in
          (* exact unless a recovery re-ran the kernels *)
          let differs got want =
            if recovered then got < want else got <> want
          in
          let total a = Array.fold_left ( + ) 0 a in
          if differs (total stats.Kf_obs.Host_stats.rows) rows then
            QCheck.Test.fail_reportf "rows %d vs %d (pool %d, recovered %b)"
              (total stats.Kf_obs.Host_stats.rows)
              rows size recovered;
          if
            differs (total stats.Kf_obs.Host_stats.nnz)
              (Fusion.Executor.nnz input)
          then
            QCheck.Test.fail_reportf "nnz %d vs %d (pool %d, recovered %b)"
              (total stats.Kf_obs.Host_stats.nnz)
              (Fusion.Executor.nnz input)
              size recovered;
          true)
        (pools ()))

let test_host_stats_imbalance_and_json () =
  let rng = Rng.create 7 in
  let x = Gen.sparse_uniform rng ~rows:500 ~cols:40 ~density:0.2 in
  let pool = Lazy.force pool2 in
  let stats, _ =
    measured ~domains:2 (fun () ->
        Fusion.Executor.xt_y ~engine:Fusion.Executor.Host ~pool device
          (Fusion.Executor.Sparse x)
          (Gen.vector rng 500) ~alpha:1.0)
  in
  Alcotest.(check bool)
    "imbalance >= 1" true
    (Kf_obs.Host_stats.load_imbalance stats >= 1.0);
  (* the JSON view parses and carries the per-domain arrays *)
  let doc =
    parse_json (Kf_obs.Json.to_string (Kf_obs.Host_stats.to_json stats))
  in
  (match member "rows" doc with
  | Some (JList l) -> Alcotest.(check int) "rows array" 2 (List.length l)
  | _ -> Alcotest.fail "rows missing from Host_stats json");
  Alcotest.(check bool)
    "no sink left installed" true
    (Kf_obs.Host_stats.current () = None)

(* No library code installs a sink: host ops issued from two domains at
   once, each on its own pool of one, must leave none behind. *)
let test_no_sink_left_by_concurrent_ops () =
  let x = Gen.sparse_uniform (Rng.create 5) ~rows:32 ~cols:1024 ~density:0.05 in
  let run seed () =
    let pool = Par.Pool.create ~size:1 () in
    let y = Gen.vector (Rng.create seed) 1024 in
    for _ = 1 to 2000 do
      ignore
        (Fusion.Executor.x_y ~engine:Fusion.Executor.Host ~pool device
           (Fusion.Executor.Sparse x) y)
    done
  in
  let other = Domain.spawn (run 1) in
  run 2 ();
  Domain.join other;
  Alcotest.(check bool)
    "no sink installed afterwards" true
    (Kf_obs.Host_stats.current () = None)

(* The [host.*] counter tracks sample the installed sink after each host
   op, only while spans are emitted. *)
let test_host_counter_tracks () =
  let rng = Rng.create 8 in
  let x = Gen.sparse_uniform rng ~rows:300 ~cols:20 ~density:0.2 in
  let y = Gen.vector rng 20 in
  let op () =
    ignore
      (Fusion.Executor.x_y ~engine:Fusion.Executor.Host
         ~pool:(Lazy.force pool2) device (Fusion.Executor.Sparse x) y)
  in
  (* A call that recovered from an injected fault may have sampled
     once per attempt that reached its host kernel. *)
  let samples f =
    Kf_obs.Trace.clear ();
    Kf_obs.Trace.enable ();
    let recoveries0 = recoveries () in
    Fun.protect ~finally:Kf_obs.Trace.disable f;
    let names =
      List.filter_map
        (function
          | Kf_obs.Trace.Counter_sample { name; _ } -> Some name
          | _ -> None)
        (Kf_obs.Trace.events ())
    in
    Kf_obs.Trace.clear ();
    if recoveries () > recoveries0 then List.sort_uniq compare names
    else List.sort compare names
  in
  let with_sink f () =
    Kf_obs.Host_stats.with_sink (Kf_obs.Host_stats.create ~domains:2) f
  in
  Alcotest.(check (list string))
    "traced op under a sink: four samples"
    [ "host.busy_ns"; "host.idle_ns"; "host.nnz"; "host.rows" ]
    (samples (with_sink op));
  Alcotest.(check (list string)) "no sink: none" [] (samples op);
  Alcotest.(check (list string))
    "suppressed: none" []
    (samples (with_sink (fun () -> Kf_obs.Trace.with_suppressed op)))

(* ---- histogram: merge monoid, quantile bounds, diff --------------------- *)

let hist_of vs =
  let h = Kf_obs.Histogram.create () in
  List.iter (Kf_obs.Histogram.record h) vs;
  h

let hist_equal a b =
  Kf_obs.Histogram.count a = Kf_obs.Histogram.count b
  && Kf_obs.Histogram.max_value a = Kf_obs.Histogram.max_value b
  && Kf_obs.Histogram.cumulative_buckets a
     = Kf_obs.Histogram.cumulative_buckets b

let values_gen = QCheck.Gen.(list_size (int_bound 200) (float_range 0.0 2e6))

let values_print vs =
  Printf.sprintf "[%s]" (String.concat "; " (List.map string_of_float vs))

let test_hist_merge_monoid =
  QCheck.Test.make ~count:100
    ~name:"histogram merge is associative and commutative"
    (QCheck.make
       ~print:(fun (a, b, c) ->
         values_print a ^ " / " ^ values_print b ^ " / " ^ values_print c)
       QCheck.Gen.(triple values_gen values_gen values_gen))
    (fun (xs, ys, zs) ->
      let open Kf_obs.Histogram in
      (* (x <> y) <> z *)
      let left = hist_of xs in
      merge ~into:left (hist_of ys);
      merge ~into:left (hist_of zs);
      (* x <> (y <> z) *)
      let yz = hist_of ys in
      merge ~into:yz (hist_of zs);
      let right = hist_of xs in
      merge ~into:right yz;
      (* z <> y <> x *)
      let rev = hist_of zs in
      merge ~into:rev (hist_of ys);
      merge ~into:rev (hist_of xs);
      if not (hist_equal left right) then
        QCheck.Test.fail_report "merge not associative";
      if not (hist_equal left rev) then
        QCheck.Test.fail_report "merge not commutative";
      if count left <> List.length xs + List.length ys + List.length zs then
        QCheck.Test.fail_report "merged count wrong";
      true)

let test_hist_quantile_bounds =
  QCheck.Test.make ~count:200
    ~name:"histogram quantile within one geometric bucket of the true value"
    (QCheck.make
       ~print:(fun (vs, q) -> Printf.sprintf "%s q=%f" (values_print vs) q)
       QCheck.Gen.(
         pair
           (list_size (int_range 1 200) (float_range 0.0 2e6))
           (float_range 0.01 1.0)))
    (fun (vs, q) ->
      let h = hist_of vs in
      let est = Kf_obs.Histogram.quantile h q in
      let sorted = List.sort compare vs in
      let n = List.length vs in
      let rank =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
      in
      let true_v = List.nth sorted (rank - 1) in
      if est < true_v -. 1e-9 then
        QCheck.Test.fail_reportf "estimate %g below true %g" est true_v;
      if est > Float.max 1.0 (true_v *. 1.25) *. (1. +. 1e-9) then
        QCheck.Test.fail_reportf "estimate %g > %g * 1.25" est true_v;
      if est > Kf_obs.Histogram.max_value h then
        QCheck.Test.fail_reportf "estimate %g above observed max" est;
      true)

let test_hist_diff_recovers_increment =
  QCheck.Test.make ~count:100
    ~name:"histogram diff of cumulative snapshots recovers the increment"
    (QCheck.make
       ~print:(fun (a, b) -> values_print a ^ " / " ^ values_print b)
       QCheck.Gen.(pair values_gen values_gen))
    (fun (xs, ys) ->
      let h = hist_of xs in
      let before = Kf_obs.Histogram.copy h in
      List.iter (Kf_obs.Histogram.record h) ys;
      let d = Kf_obs.Histogram.diff ~after:h ~before in
      let expect = hist_of ys in
      if Kf_obs.Histogram.count d <> List.length ys then
        QCheck.Test.fail_reportf "diff count %d <> %d"
          (Kf_obs.Histogram.count d) (List.length ys);
      (* bucket-exact: cumulative subtraction loses only the true max *)
      if
        Kf_obs.Histogram.cumulative_buckets d
        <> Kf_obs.Histogram.cumulative_buckets expect
      then QCheck.Test.fail_report "diff buckets differ from increment";
      true)

let test_hist_cumulative_roundtrip =
  QCheck.Test.make ~count:100
    ~name:"of_cumulative inverts cumulative_buckets"
    (QCheck.make ~print:values_print values_gen)
    (fun vs ->
      let h = hist_of vs in
      let r =
        Kf_obs.Histogram.of_cumulative
          ~buckets:(Kf_obs.Histogram.cumulative_buckets h)
          ~count:(Kf_obs.Histogram.count h)
          ~sum:(Kf_obs.Histogram.sum h)
      in
      if
        Kf_obs.Histogram.cumulative_buckets r
        <> Kf_obs.Histogram.cumulative_buckets h
      then QCheck.Test.fail_report "bucket series not recovered";
      if Kf_obs.Histogram.count r <> Kf_obs.Histogram.count h then
        QCheck.Test.fail_report "count not recovered";
      true)

(* ---- metrics registry -------------------------------------------------- *)

let with_metrics f =
  Kf_obs.Metrics.reset ();
  Fun.protect ~finally:Kf_obs.Metrics.reset f

let test_metrics_cells () =
  with_metrics @@ fun () ->
  let c = Kf_obs.Metrics.counter ~labels:[ ("model", "a") ] "t_requests" in
  (* same name + labels (any order) -> same cell *)
  let c' = Kf_obs.Metrics.counter ~labels:[ ("model", "a") ] "t_requests" in
  Kf_obs.Metrics.inc c;
  Kf_obs.Metrics.inc ~by:2.0 c';
  Alcotest.(check (float 1e-9))
    "one cell behind both handles" 3.0
    (Kf_obs.Metrics.counter_value c);
  (try
     Kf_obs.Metrics.inc ~by:(-1.0) c;
     Alcotest.fail "negative counter increment accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Kf_obs.Metrics.gauge ~labels:[ ("model", "a") ] "t_requests");
     Alcotest.fail "kind mismatch accepted"
   with Invalid_argument _ -> ());
  let g = Kf_obs.Metrics.gauge "t_depth" in
  Kf_obs.Metrics.set g 7.5;
  Kf_obs.Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "gauge keeps last" 2.5
    (Kf_obs.Metrics.gauge_value g);
  let h = Kf_obs.Metrics.histogram "t_lat" in
  List.iter (Kf_obs.Metrics.observe h) [ 10.0; 20.0; 30.0 ];
  Alcotest.(check int) "histogram records" 3
    (Kf_obs.Histogram.count (Kf_obs.Metrics.histogram_value h));
  let snap = Kf_obs.Metrics.snapshot () in
  match
    Kf_obs.Metrics.find snap ~name:"t_requests"
      ~labels:[ ("model", "a") ] ()
  with
  | Some { s_value = Kf_obs.Metrics.Vcounter v; _ } ->
      Alcotest.(check (float 1e-9)) "snapshot sees the counter" 3.0 v
  | _ -> Alcotest.fail "t_requests missing from snapshot"

let test_metrics_snapshot_diff () =
  with_metrics @@ fun () ->
  let c = Kf_obs.Metrics.counter "d_total" in
  let h = Kf_obs.Metrics.histogram "d_lat" in
  Kf_obs.Metrics.inc ~by:10.0 c;
  Kf_obs.Metrics.observe h 5.0;
  let before = Kf_obs.Metrics.snapshot () in
  Kf_obs.Metrics.inc ~by:5.0 c;
  List.iter (Kf_obs.Metrics.observe h) [ 50.0; 60.0; 70.0 ];
  let after = Kf_obs.Metrics.snapshot () in
  let d = Kf_obs.Metrics.snapshot_diff ~before ~after in
  (match Kf_obs.Metrics.find d ~name:"d_total" () with
  | Some { s_value = Kf_obs.Metrics.Vcounter v; _ } ->
      Alcotest.(check (float 1e-9)) "counter diff is the delta" 5.0 v
  | _ -> Alcotest.fail "d_total missing from diff");
  match Kf_obs.Metrics.find d ~name:"d_lat" () with
  | Some { s_value = Kf_obs.Metrics.Vhist dh; _ } ->
      Alcotest.(check int) "hist diff holds the increment only" 3
        (Kf_obs.Histogram.count dh)
  | _ -> Alcotest.fail "d_lat missing from diff"

let test_metrics_window () =
  with_metrics @@ fun () ->
  let c = Kf_obs.Metrics.counter "w_req" in
  let h = Kf_obs.Metrics.histogram "w_lat" in
  let w = Kf_obs.Metrics.Window.create ~capacity:4 () in
  Kf_obs.Metrics.Window.push w (Kf_obs.Metrics.snapshot ());
  Kf_obs.Metrics.inc ~by:100.0 c;
  List.iter (Kf_obs.Metrics.observe h) [ 10.0; 20.0; 30.0 ];
  Kf_obs.Metrics.Window.push w (Kf_obs.Metrics.snapshot ());
  Alcotest.(check bool)
    "window spans time" true
    (Kf_obs.Metrics.Window.span_s w > 0.0);
  Alcotest.(check bool)
    "rate positive" true
    (Kf_obs.Metrics.Window.rate w ~name:"w_req" () > 0.0);
  (match Kf_obs.Metrics.Window.quantile w ~name:"w_lat" ~q:0.5 () with
  | Some v ->
      Alcotest.(check bool) "rolling p50 in range" true (v >= 10.0 && v <= 40.0)
  | None -> Alcotest.fail "rolling quantile missing");
  Alcotest.(check bool)
    "unknown family has no quantile" true
    (Kf_obs.Metrics.Window.quantile w ~name:"nope" ~q:0.5 () = None)

(* ---- OpenMetrics writer (validated with the independent parser) -------- *)

let test_openmetrics_exposition () =
  with_metrics @@ fun () ->
  let c =
    Kf_obs.Metrics.counter ~help:"requests served"
      ~labels:[ ("model", "tricky \"name\"\\path\nnewline") ]
      "om_requests"
  in
  Kf_obs.Metrics.inc ~by:3.0 c;
  let g = Kf_obs.Metrics.gauge "om_depth" in
  Kf_obs.Metrics.set g 2.5;
  let h = Kf_obs.Metrics.histogram "om_latency_us" in
  List.iter (Kf_obs.Metrics.observe h) [ 0.5; 12.0; 12.0; 900.0; 40_000.0 ];
  let text = Kf_obs.Openmetrics.render (Kf_obs.Metrics.snapshot ()) in
  let families = Om_helper.parse text in
  (* counter: TYPE line, _total suffix on the sample, escaping *)
  (match Om_helper.find families "om_requests" with
  | None -> Alcotest.fail "om_requests family missing"
  | Some f -> (
      Alcotest.(check string) "counter kind" "counter" f.Om_helper.f_kind;
      Alcotest.(check (option string))
        "help text" (Some "requests served") f.Om_helper.f_help;
      Alcotest.(check int)
        "no unsuffixed counter sample" 0
        (List.length (Om_helper.samples_named f "om_requests"));
      match Om_helper.samples_named f "om_requests_total" with
      | [ s ] ->
          Alcotest.(check (float 1e-9)) "counter value" 3.0 s.Om_helper.s_value;
          Alcotest.(check (option string))
            "label escaping round-trips"
            (Some "tricky \"name\"\\path\nnewline")
            (List.assoc_opt "model" s.Om_helper.s_labels)
      | l -> Alcotest.failf "expected 1 _total sample, got %d" (List.length l)));
  (* gauge *)
  (match Om_helper.find families "om_depth" with
  | Some { Om_helper.f_kind = "gauge"; f_samples = [ s ]; _ } ->
      Alcotest.(check (float 1e-9)) "gauge value" 2.5 s.Om_helper.s_value
  | _ -> Alcotest.fail "om_depth gauge malformed");
  (* histogram: le ascending, cumulative non-decreasing, +Inf = count *)
  match Om_helper.find families "om_latency_us" with
  | None -> Alcotest.fail "om_latency_us family missing"
  | Some f ->
      Alcotest.(check string) "histogram kind" "histogram" f.Om_helper.f_kind;
      let buckets = Om_helper.samples_named f "om_latency_us_bucket" in
      Alcotest.(check bool) "has buckets" true (List.length buckets >= 2);
      let les =
        List.map
          (fun s ->
            match List.assoc_opt "le" s.Om_helper.s_labels with
            | Some "+Inf" -> infinity
            | Some le -> float_of_string le
            | None -> Alcotest.fail "bucket without le")
          buckets
      in
      Alcotest.(check bool)
        "le strictly ascending" true
        (List.for_all2 ( < )
           (List.filteri (fun i _ -> i < List.length les - 1) les)
           (List.tl les));
      let cums = List.map (fun s -> s.Om_helper.s_value) buckets in
      Alcotest.(check bool)
        "cumulative non-decreasing" true
        (List.for_all2 ( <= )
           (List.filteri (fun i _ -> i < List.length cums - 1) cums)
           (List.tl cums));
      Alcotest.(check bool)
        "last bucket is +Inf" true
        (List.nth les (List.length les - 1) = infinity);
      let count =
        match Om_helper.samples_named f "om_latency_us_count" with
        | [ s ] -> s.Om_helper.s_value
        | _ -> Alcotest.fail "missing _count"
      in
      Alcotest.(check (float 1e-9))
        "+Inf bucket equals count" count
        (List.nth cums (List.length cums - 1));
      Alcotest.(check (float 1e-9)) "count is 5" 5.0 count;
      match Om_helper.samples_named f "om_latency_us_sum" with
      | [ s ] ->
          Alcotest.(check (float 1e-3))
            "sum matches" (0.5 +. 12.0 +. 12.0 +. 900.0 +. 40_000.0)
            s.Om_helper.s_value
      | _ -> Alcotest.fail "missing _sum"

let test_openmetrics_process_counters () =
  with_metrics @@ fun () ->
  let c = Kf_obs.Counter.make "test.dotted.name" in
  Kf_obs.Counter.incr c;
  let text =
    Kf_obs.Openmetrics.render
      (Kf_obs.Metrics.snapshot ~process_counters:true ())
  in
  let families = Om_helper.parse text in
  match Om_helper.find families "test_dotted_name" with
  | Some { Om_helper.f_kind = "counter"; f_samples = s :: _; _ } ->
      Alcotest.(check string)
        "dotted name sanitised with _total" "test_dotted_name_total"
        s.Om_helper.s_name
  | _ -> Alcotest.fail "process counter missing from exposition"

(* ---- SLO error budget -------------------------------------------------- *)

let test_slo_budget_arithmetic () =
  with_metrics @@ fun () ->
  (try
     ignore (Kf_obs.Slo.create ~target_us:100.0 ~objective:1.5 "bad");
     Alcotest.fail "objective > 1 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Kf_obs.Slo.create ~target_us:(-1.0) ~objective:0.9 "bad");
     Alcotest.fail "negative target accepted"
   with Invalid_argument _ -> ());
  let s = Kf_obs.Slo.create ~window:10 ~target_us:100.0 ~objective:0.9 "m" in
  Alcotest.(check (float 1e-9))
    "full budget before traffic" 1.0
    (Kf_obs.Slo.budget_remaining s);
  (* 9 fast + 1 slow in a window of 10 at objective 0.9: allowed
     violations = 0.1 * 10 = 1, so the budget is exactly spent *)
  for _ = 1 to 9 do
    Kf_obs.Slo.record s ~latency_us:50.0 ~ok:true
  done;
  Kf_obs.Slo.record s ~latency_us:200.0 ~ok:true;
  Alcotest.(check int) "one violation" 1 (Kf_obs.Slo.window_violations s);
  Alcotest.(check (float 1e-9))
    "budget exactly spent" 0.0
    (Kf_obs.Slo.budget_remaining s);
  Alcotest.(check bool) "not compliant at zero" false (Kf_obs.Slo.compliant s);
  (* failures violate even when fast *)
  Kf_obs.Slo.record s ~latency_us:10.0 ~ok:false;
  Alcotest.(check int) "failure counts" 2 (Kf_obs.Slo.violations s);
  (* compliant requests push the violations out of the window *)
  for _ = 1 to 10 do
    Kf_obs.Slo.record s ~latency_us:50.0 ~ok:true
  done;
  Alcotest.(check int) "window clean again" 0
    (Kf_obs.Slo.window_violations s);
  Alcotest.(check (float 1e-9))
    "budget earned back" 1.0
    (Kf_obs.Slo.budget_remaining s);
  Alcotest.(check int) "lifetime total" 21 (Kf_obs.Slo.total s);
  Alcotest.(check int) "lifetime violations" 2 (Kf_obs.Slo.violations s);
  (* a violation is counted once per scrape: no process counter beside
     the labelled metric *)
  Alcotest.(check bool) "no slo.violations process counter" false
    (List.mem_assoc "slo.violations" (Kf_obs.Counter.all ()));
  (* the registry publishes SLO state without extra wiring *)
  let snap = Kf_obs.Metrics.snapshot () in
  (match
     Kf_obs.Metrics.find snap ~name:"kf_slo_violations"
       ~labels:[ ("model", "m") ] ()
   with
  | Some { s_value = Kf_obs.Metrics.Vcounter v; _ } ->
      Alcotest.(check (float 1e-9)) "violations metric" 2.0 v
  | _ -> Alcotest.fail "kf_slo_violations missing");
  match
    Kf_obs.Metrics.find snap ~name:"kf_slo_error_budget"
      ~labels:[ ("model", "m") ] ()
  with
  | Some { s_value = Kf_obs.Metrics.Vgauge v; _ } ->
      Alcotest.(check (float 1e-9)) "budget gauge" 1.0 v
  | _ -> Alcotest.fail "kf_slo_error_budget missing"

(* ---- trace sampling ---------------------------------------------------- *)

let test_trace_sampling_deterministic () =
  Fun.protect ~finally:(fun () -> Kf_obs.Trace.set_sample 1.0)
  @@ fun () ->
  let n = 10_000 in
  Kf_obs.Trace.set_sample ~seed:42 0.3;
  let d1 = List.init n Kf_obs.Trace.sampled in
  Kf_obs.Trace.set_sample ~seed:42 0.3;
  let d2 = List.init n Kf_obs.Trace.sampled in
  Alcotest.(check bool) "same seed, same decisions" true (d1 = d2);
  let kept = List.length (List.filter Fun.id d1) in
  let fraction = float_of_int kept /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "fraction %.3f near rate" fraction)
    true
    (fraction > 0.25 && fraction < 0.35);
  Kf_obs.Trace.set_sample ~seed:43 0.3;
  let d3 = List.init n Kf_obs.Trace.sampled in
  Alcotest.(check bool) "different seed, different subset" true (d1 <> d3);
  Kf_obs.Trace.set_sample 0.0;
  Alcotest.(check bool)
    "rate 0 keeps nothing" true
    (not (List.exists Kf_obs.Trace.sampled [ 1; 2; 3; 4; 5 ]));
  Kf_obs.Trace.set_sample 1.0;
  Alcotest.(check bool)
    "rate 1 keeps everything" true
    (List.for_all Kf_obs.Trace.sampled [ 1; 2; 3; 4; 5 ])

let test_trace_suppression () =
  with_tracing @@ fun () ->
  Kf_obs.Trace.with_suppressed (fun () ->
      Kf_obs.Trace.instant "hidden";
      Kf_obs.Trace.with_span "hidden-span" (fun () ->
          ignore (Sys.opaque_identity 1)));
  Alcotest.(check bool) "flag restored" false (Kf_obs.Trace.suppressed ());
  Kf_obs.Trace.instant "visible";
  let names =
    List.map
      (function
        | Kf_obs.Trace.Span { name; _ }
        | Kf_obs.Trace.Instant { name; _ }
        | Kf_obs.Trace.Counter_sample { name; _ } ->
            name)
      (Kf_obs.Trace.events ())
  in
  Alcotest.(check (list string)) "only unsuppressed events" [ "visible" ] names

(* ---- counter snapshot diff --------------------------------------------- *)

let test_counter_snapshot_diff () =
  let c = Kf_obs.Counter.make "test.diffed" in
  let other = Kf_obs.Counter.make "test.undisturbed" in
  ignore other;
  let before = Kf_obs.Counter.snapshot () in
  Kf_obs.Counter.add c 7;
  let d =
    Kf_obs.Counter.snapshot_diff ~before ~after:(Kf_obs.Counter.snapshot ())
  in
  Alcotest.(check (option int))
    "delta of the bumped counter" (Some 7)
    (List.assoc_opt "test.diffed" d);
  Alcotest.(check (option int))
    "untouched counter reads zero" (Some 0)
    (List.assoc_opt "test.undisturbed" d)

(* ---- OpenMetrics reader ------------------------------------------------ *)

(* A family: name, kind, help, and per label set the values recorded
   into it.  Names are lowercase letters only, so no gauge name can end
   in a series suffix; label values carry the characters the format
   escapes or quotes around. *)
let gen_om_families =
  QCheck.Gen.(
    let text =
      string_size
        ~gen:
          (oneof
             [ printable; oneofl [ '}'; '{'; '"'; '\\'; '\n'; ','; '=' ] ])
        (0 -- 10)
    in
    let labels =
      map
        (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b))
        (list_size (0 -- 3) (pair (oneofl [ "model"; "op"; "zone" ]) text))
    in
    let family =
      quad
        (string_size ~gen:(char_range 'a' 'z') (1 -- 6))
        (oneofl [ `Counter; `Gauge; `Histogram ])
        text
        (list_size (1 -- 3) (pair labels (list_size (0 -- 5) float)))
    in
    map
      (List.sort_uniq (fun (a, _, _, _) (b, _, _, _) -> String.compare a b))
      (list_size (0 -- 5) family))

(* Record [families] into the (reset) registry and snapshot it. *)
let om_snapshot families =
  List.iter
    (fun (name, kind, help, cells) ->
      List.iter
        (fun (labels, values) ->
          match kind with
          | `Counter ->
              let c = Kf_obs.Metrics.counter ~help ~labels name in
              List.iter
                (fun v -> if v >= 0.0 then Kf_obs.Metrics.inc ~by:v c)
                values
          | `Gauge ->
              let g = Kf_obs.Metrics.gauge ~help ~labels name in
              List.iter (Kf_obs.Metrics.set g) values
          | `Histogram ->
              let h = Kf_obs.Metrics.histogram ~help ~labels name in
              List.iter
                (fun v ->
                  if Float.is_finite v then
                    Kf_obs.Metrics.observe h (Float.abs v))
                values)
        cells)
    families;
  Kf_obs.Metrics.snapshot ()

let same_om_value a b =
  let bits = Int64.bits_of_float in
  match (a, b) with
  | Kf_obs.Metrics.Vcounter x, Kf_obs.Metrics.Vcounter y -> bits x = bits y
  | Kf_obs.Metrics.Vgauge x, Kf_obs.Metrics.Vgauge y ->
      bits x = bits y || (Float.is_nan x && Float.is_nan y)
  | Kf_obs.Metrics.Vhist x, Kf_obs.Metrics.Vhist y ->
      Kf_obs.Histogram.count x = Kf_obs.Histogram.count y
      && bits (Kf_obs.Histogram.sum x) = bits (Kf_obs.Histogram.sum y)
      && Kf_obs.Histogram.cumulative_buckets x
         = Kf_obs.Histogram.cumulative_buckets y
  | _ -> false

let prop_openmetrics_roundtrip =
  QCheck.Test.make ~name:"openmetrics: parse inverts render" ~count:200
    (QCheck.make gen_om_families) (fun families ->
      with_metrics @@ fun () ->
      let snap = om_snapshot families in
      let text = Kf_obs.Openmetrics.render snap in
      match Kf_obs.Openmetrics.parse text with
      | Error e -> QCheck.Test.fail_reportf "%s on\n%s" e text
      | Ok back ->
          List.length back.samples = List.length snap.samples
          && List.for_all2
               (fun (a : Kf_obs.Metrics.sample) (b : Kf_obs.Metrics.sample) ->
                 a.s_name = b.s_name && a.s_labels = b.s_labels
                 && a.s_help = b.s_help
                 && same_om_value a.s_value b.s_value)
               snap.samples back.samples
          || QCheck.Test.fail_reportf "round trip differs on\n%s" text)

(* Lines the fuzzer injects: malformed bounds and counts, and values
   only a scanning label reader gets right. *)
let om_injected =
  [
    "# TYPE x histogram\nx_bucket{le=\"abc\"} 1";
    "# TYPE x histogram\nx_bucket{le=\"NaN\"} 1";
    "# TYPE x histogram\nx_bucket 1";
    "# TYPE x histogram\nx_count 1e300";
    "# TYPE x histogram\nx_bucket{le=\"2\"} 99999999999999999999";
    "# TYPE y counter\ny_total 1e308";
    "# TYPE y counter\ny 1";
    "# TYPE y summary";
    "z{a=\"}\",b=\"\\\"\"} 3";
    "z{a=\"open} 3";
    "# HELP z dangling \\";
  ]

let apply_om_mutation text m =
  let n = String.length text in
  let at p = if n = 0 then 0 else p mod (n + 1) in
  match m with
  | `Truncate p -> String.sub text 0 (at p)
  | `Flip (p, bit) when n > 0 ->
      let b = Bytes.of_string text in
      let i = p mod n in
      Bytes.set b i (Char.chr (Char.code text.[i] lxor (1 lsl bit)));
      Bytes.to_string b
  | `Flip _ -> text
  | `Splice (src, len, dst) ->
      let src = at src in
      let piece = String.sub text src (Stdlib.min (len mod 64) (n - src)) in
      let dst = at dst in
      String.sub text 0 dst ^ piece ^ String.sub text dst (n - dst)
  | `Inject (line, p) ->
      let p = at p in
      String.sub text 0 p ^ "\n" ^ line ^ "\n" ^ String.sub text p (n - p)

let prop_openmetrics_fuzz =
  let mutation =
    QCheck.Gen.(
      oneof
        [
          map (fun p -> `Truncate p) nat;
          map2 (fun p bit -> `Flip (p, bit)) nat (0 -- 7);
          map3 (fun a b c -> `Splice (a, b, c)) nat nat nat;
          map2 (fun l p -> `Inject (l, p)) (oneofl om_injected) nat;
        ])
  in
  QCheck.Test.make
    ~name:"openmetrics: mutated expositions parse or fail, never raise"
    ~count:500
    (QCheck.make
       QCheck.Gen.(pair gen_om_families (list_size (1 -- 4) mutation)))
    (fun (families, mutations) ->
      let text =
        List.fold_left apply_om_mutation
          (with_metrics (fun () ->
               Kf_obs.Openmetrics.render (om_snapshot families)))
          mutations
      in
      match Kf_obs.Openmetrics.parse text with
      | Error _ -> true
      | Ok snap ->
          (* what kf top does with a parsed scrape *)
          let w = Kf_obs.Metrics.Window.create ~capacity:2 () in
          Kf_obs.Metrics.Window.push w snap;
          Kf_obs.Metrics.Window.push w snap;
          Option.iter
            (fun (d : Kf_obs.Metrics.snapshot) ->
              List.iter
                (fun (s : Kf_obs.Metrics.sample) ->
                  match s.s_value with
                  | Kf_obs.Metrics.Vhist h ->
                      ignore (Kf_obs.Histogram.quantile h 0.99)
                  | _ -> ())
                d.samples)
            (Kf_obs.Metrics.Window.diff w);
          true
      | exception e ->
          QCheck.Test.fail_reportf "parse raised %s on\n%S"
            (Printexc.to_string e) text)

(* A scrape kf top used to die on, and one it used to refuse. *)
let test_openmetrics_parse_errors () =
  let parse body = Kf_obs.Openmetrics.parse (body ^ "# EOF\n") in
  let is_error what body =
    match parse body with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  is_error "le=abc" "# TYPE x histogram\nx_bucket{le=\"abc\"} 1\n";
  is_error "le=NaN" "# TYPE x histogram\nx_bucket{le=\"NaN\"} 1\n";
  is_error "huge count" "# TYPE x histogram\nx_count 1e300\n";
  (match Kf_obs.Openmetrics.parse "x 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no EOF: accepted");
  match parse "kf_serve_requests_total{model=\"a}b\"} 5\n" with
  | Ok { samples = [ s ]; _ } ->
      Alcotest.(check (list (pair string string)))
        "brace inside a label value" [ ("model", "a}b") ] s.s_labels
  | Ok _ -> Alcotest.fail "expected one sample"
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "span: disabled is free" `Quick
      test_span_disabled_records_nothing;
    Alcotest.test_case "span: nesting and ordering" `Quick
      test_span_nesting_and_order;
    Alcotest.test_case "span: recorded on raise" `Quick
      test_span_survives_exceptions;
    Alcotest.test_case "counter: monotonic" `Quick test_counter_monotonic;
    Alcotest.test_case "counter: registry idempotent" `Quick
      test_counter_registry;
    Alcotest.test_case "chrome: export parses" `Quick test_chrome_json_valid;
    Alcotest.test_case "chrome: file round-trip" `Quick
      test_chrome_file_roundtrip;
    QCheck_alcotest.to_alcotest test_host_stats_totals;
    Alcotest.test_case "host stats: imbalance + json" `Quick
      test_host_stats_imbalance_and_json;
    Alcotest.test_case "host stats: concurrent ops leave no sink" `Quick
      test_no_sink_left_by_concurrent_ops;
    Alcotest.test_case "host stats: counter tracks need sink + emission"
      `Quick test_host_counter_tracks;
    QCheck_alcotest.to_alcotest test_hist_merge_monoid;
    QCheck_alcotest.to_alcotest test_hist_quantile_bounds;
    QCheck_alcotest.to_alcotest test_hist_diff_recovers_increment;
    QCheck_alcotest.to_alcotest test_hist_cumulative_roundtrip;
    Alcotest.test_case "metrics: cells, kinds, labels" `Quick
      test_metrics_cells;
    Alcotest.test_case "metrics: snapshot diff" `Quick
      test_metrics_snapshot_diff;
    Alcotest.test_case "metrics: rolling window" `Quick test_metrics_window;
    Alcotest.test_case "openmetrics: exposition validates" `Quick
      test_openmetrics_exposition;
    Alcotest.test_case "openmetrics: process counters folded in" `Quick
      test_openmetrics_process_counters;
    Alcotest.test_case "slo: error-budget arithmetic" `Quick
      test_slo_budget_arithmetic;
    Alcotest.test_case "trace: sampling deterministic" `Quick
      test_trace_sampling_deterministic;
    Alcotest.test_case "trace: suppression scope" `Quick
      test_trace_suppression;
    Alcotest.test_case "counter: snapshot diff" `Quick
      test_counter_snapshot_diff;
    QCheck_alcotest.to_alcotest prop_openmetrics_roundtrip;
    QCheck_alcotest.to_alcotest prop_openmetrics_fuzz;
    Alcotest.test_case "openmetrics: malformed scrapes are errors" `Quick
      test_openmetrics_parse_errors;
  ]
