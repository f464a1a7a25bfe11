(* The micro-batched scoring service: delivery guarantees (every
   accepted request resolves exactly once), numeric equivalence of
   batched and unbatched scoring, and admission control. *)
open Matrix
open Gpu_sim
open Kf_serve

let device = Device.gtx_titan

let lr = Kf_ml.Registry.find "lr"

(* A small planted linear model: weights w over [cols] features. *)
let lr_weights ~cols seed =
  let rng = Rng.create seed in
  let w = Gen.vector rng cols in
  { Kf_ml.Algorithm.vecs = [| w |]; cols; extra = [] }

let dense_row ~cols seed =
  let rng = Rng.create seed in
  Array.init cols (fun _ -> (2.0 *. Rng.uniform rng) -. 1.0)

let reference_score weights row =
  let input = Fusion.Executor.Dense (Dense.of_arrays [| row |]) in
  (Kf_ml.Algorithm.predict lr weights input).(0)

let mk_service ?engine ?pool ?(window_us = 200) ?(max_batch = 32)
    ?(queue_depth = 1024) ?(adaptive = false) ?(window_cap_us = 500)
    ?(deadline_shed = false) ?start ?model ?slo weights =
  Service.create ?engine ?pool
    ~config:
      {
        Service.window_us;
        max_batch;
        queue_depth;
        adaptive;
        window_cap_us;
        deadline_shed;
      }
    ?start ?model ?slo device ~algo:lr ~weights ()

let score_exn = function
  | Service.Score s -> s
  | Service.Failed msg -> Alcotest.failf "request failed: %s" msg

let submit_exn svc row =
  match Service.submit svc row with
  | Some t -> t
  | None -> Alcotest.fail "request shed below queue bound"

(* --- basic correctness -------------------------------------------------- *)

let test_scores_match_reference () =
  let cols = 24 in
  let weights = lr_weights ~cols 1 in
  let svc = mk_service weights in
  let rows = Array.init 40 (fun i -> dense_row ~cols (100 + i)) in
  let tickets =
    Array.map (fun r -> submit_exn svc (Service.Dense_row r)) rows
  in
  Array.iteri
    (fun i t ->
      let got = score_exn (Service.await t) in
      let want = reference_score weights rows.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "row %d matches reference" i)
        true
        (Float.abs (got -. want) <= 1e-9))
    tickets;
  Service.shutdown svc

let test_sparse_rows_match_dense () =
  let cols = 32 in
  let weights = lr_weights ~cols 2 in
  let svc = mk_service weights in
  (* every third column populated; the all-sparse batch takes the CSR
     assembly path *)
  let idx = Array.init (cols / 3) (fun k -> 3 * k) in
  let mk seed =
    let rng = Rng.create seed in
    Array.init (Array.length idx) (fun _ -> (2.0 *. Rng.uniform rng) -. 1.0)
  in
  let sparse_tickets =
    Array.init 16 (fun i ->
        let vals = mk (200 + i) in
        (vals, submit_exn svc (Service.Sparse_row (idx, vals))))
  in
  Array.iter
    (fun (vals, t) ->
      let dense = Array.make cols 0.0 in
      Array.iteri (fun k c -> dense.(c) <- vals.(k)) idx;
      let want = reference_score weights dense in
      let got = score_exn (Service.await t) in
      Alcotest.(check bool) "sparse row scores like its dense image" true
        (Float.abs (got -. want) <= 1e-9))
    sparse_tickets;
  (* a mixed batch densifies: interleave sparse and dense submissions *)
  let mixed =
    Array.init 10 (fun i ->
        if i mod 2 = 0 then begin
          let vals = mk (300 + i) in
          let dense = Array.make cols 0.0 in
          Array.iteri (fun k c -> dense.(c) <- vals.(k)) idx;
          (dense, submit_exn svc (Service.Sparse_row (idx, vals)))
        end
        else
          let row = dense_row ~cols (300 + i) in
          (row, submit_exn svc (Service.Dense_row row)))
  in
  Array.iter
    (fun (dense, t) ->
      let want = reference_score weights dense in
      let got = score_exn (Service.await t) in
      Alcotest.(check bool) "mixed batch row matches reference" true
        (Float.abs (got -. want) <= 1e-9))
    mixed;
  Service.shutdown svc

let test_row_validation () =
  let weights = lr_weights ~cols:8 3 in
  let svc = mk_service weights in
  Alcotest.check_raises "short dense row"
    (Invalid_argument
       "Service.submit: dense row has 5 elements, model expects 8")
    (fun () -> ignore (Service.submit svc (Service.Dense_row (Array.make 5 0.))));
  (try
     ignore
       (Service.submit svc (Service.Sparse_row ([| 3; 1 |], [| 1.0; 2.0 |])));
     Alcotest.fail "unsorted sparse row accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Service.submit svc (Service.Sparse_row ([| 9 |], [| 1.0 |])));
     Alcotest.fail "out-of-range sparse column accepted"
   with Invalid_argument _ -> ());
  Service.shutdown svc;
  (try
     ignore (Service.submit svc (Service.Dense_row (Array.make 8 0.)));
     Alcotest.fail "submit after shutdown accepted"
   with Invalid_argument _ -> ())

(* --- delivery guarantee across engines and pool sizes ------------------- *)

(* N submitter threads x M requests each: every accepted request
   resolves exactly once with the reference score, whatever engine runs
   the batch and however many domains its pool has. *)
let exactly_one_reply ~engine ~pool_size () =
  let cols = 16 in
  let weights = lr_weights ~cols 4 in
  let pool =
    if pool_size = 0 then None else Some (Par.Pool.create ~size:pool_size ())
  in
  let svc = mk_service ~engine ?pool ~window_us:100 ~max_batch:8 weights in
  let n_threads = 4 and per_thread = 25 in
  let replies = Array.make (n_threads * per_thread) None in
  let threads =
    Array.init n_threads (fun tid ->
        Thread.create
          (fun () ->
            for j = 0 to per_thread - 1 do
              let k = (tid * per_thread) + j in
              let row = dense_row ~cols (1000 + k) in
              let t = submit_exn svc (Service.Dense_row row) in
              let got = score_exn (Service.await t) in
              replies.(k) <- Some (row, got)
            done)
          ())
  in
  Array.iter Thread.join threads;
  Service.shutdown svc;
  (match pool with Some p -> Par.Pool.shutdown p | None -> ());
  Array.iteri
    (fun k reply ->
      match reply with
      | None -> Alcotest.failf "request %d never resolved" k
      | Some (row, got) ->
          let want = reference_score weights row in
          Alcotest.(check bool)
            (Printf.sprintf "request %d scored correctly" k)
            true
            (Float.abs (got -. want) <= 1e-9))
    replies;
  let st = Service.stats svc in
  Alcotest.(check int) "all requests accepted" (n_threads * per_thread)
    st.Service.accepted;
  Alcotest.(check int) "none shed" 0 st.Service.shed;
  Alcotest.(check int) "none failed" 0 st.Service.failures;
  Alcotest.(check bool) "batching happened (batches <= requests)" true
    (st.Service.batches >= 1 && st.Service.batches <= st.Service.accepted)

let test_replies_fused () = exactly_one_reply ~engine:Fusion.Executor.Fused ~pool_size:0 ()

let test_replies_library () =
  exactly_one_reply ~engine:Fusion.Executor.Library ~pool_size:0 ()

let test_replies_host_pool1 () =
  exactly_one_reply ~engine:Fusion.Executor.Host ~pool_size:1 ()

let test_replies_host_pool2 () =
  exactly_one_reply ~engine:Fusion.Executor.Host ~pool_size:2 ()

(* --- batched == unbatched ----------------------------------------------- *)

let test_batched_equals_unbatched () =
  let cols = 20 in
  let weights = lr_weights ~cols 5 in
  let rows = Array.init 60 (fun i -> dense_row ~cols (2000 + i)) in
  let score_all ~window_us =
    let svc = mk_service ~window_us ~max_batch:16 weights in
    let tickets =
      Array.map (fun r -> submit_exn svc (Service.Dense_row r)) rows
    in
    let scores = Array.map (fun t -> score_exn (Service.await t)) tickets in
    let st = Service.stats svc in
    Service.shutdown svc;
    (scores, st)
  in
  let batched, bst = score_all ~window_us:500 in
  let unbatched, ust = score_all ~window_us:0 in
  Array.iteri
    (fun i b ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d batched == unbatched" i)
        true
        (Float.abs (b -. unbatched.(i)) <= 1e-9))
    batched;
  (* window=0 really is unbatched: one batch per request *)
  Alcotest.(check int) "window=0 gives batch-of-1" (Array.length rows)
    ust.Service.batches;
  Alcotest.(check bool) "window>0 coalesces" true
    (bst.Service.batches < Array.length rows)

(* --- admission control --------------------------------------------------- *)

let test_shed_only_above_bound () =
  let cols = 12 in
  let weights = lr_weights ~cols 6 in
  let depth = 4 in
  (* deferred start: the queue fills deterministically before the
     scheduler gets to drain it *)
  let svc =
    mk_service ~window_us:0 ~queue_depth:depth ~start:false weights
  in
  let accepted = ref [] and shed = ref 0 in
  for i = 0 to (2 * depth) - 1 do
    match Service.submit svc (Service.Dense_row (dense_row ~cols (3000 + i))) with
    | Some t -> accepted := t :: !accepted
    | None -> incr shed
  done;
  Alcotest.(check int) "queue holds exactly queue_depth" depth
    (List.length !accepted);
  Alcotest.(check int) "overflow is shed" depth !shed;
  Service.start svc;
  List.iter (fun t -> ignore (score_exn (Service.await t))) !accepted;
  let st = Service.stats svc in
  Alcotest.(check int) "stats agree on accepted" depth st.Service.accepted;
  Alcotest.(check int) "stats agree on shed" depth st.Service.shed;
  Service.shutdown svc

let test_shutdown_drains_unstarted () =
  let cols = 10 in
  let weights = lr_weights ~cols 7 in
  let svc = mk_service ~start:false weights in
  let tickets =
    Array.init 5 (fun i ->
        submit_exn svc (Service.Dense_row (dense_row ~cols (4000 + i))))
  in
  (* shutdown on a never-started service drains synchronously *)
  Service.shutdown svc;
  Array.iter (fun t -> ignore (score_exn (Service.await t))) tickets

(* --- stats and histograms ------------------------------------------------ *)

let test_stats_histograms () =
  let cols = 14 in
  let weights = lr_weights ~cols 8 in
  let svc = mk_service ~window_us:200 ~max_batch:8 weights in
  let tickets =
    Array.init 30 (fun i ->
        submit_exn svc (Service.Dense_row (dense_row ~cols (5000 + i))))
  in
  Array.iter (fun t -> ignore (score_exn (Service.await t))) tickets;
  let st = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check int) "latency histogram counts every request" 30
    (Kf_obs.Histogram.count st.Service.latency_us);
  Alcotest.(check int) "occupancy histogram counts every batch"
    st.Service.batches
    (Kf_obs.Histogram.count st.Service.occupancy);
  Alcotest.(check bool) "mean occupancy >= 1" true
    (Kf_obs.Histogram.mean st.Service.occupancy >= 1.0);
  Alcotest.(check bool) "p99 latency >= p50" true
    (Kf_obs.Histogram.quantile st.Service.latency_us 0.99
    >= Kf_obs.Histogram.quantile st.Service.latency_us 0.5);
  (* the JSON snapshot round-trips through the independent test-side
     parser *)
  let j = Json_helper.parse_json (Kf_obs.Json.to_string (Service.stats_json st)) in
  match Json_helper.member "requests" j with
  | Some (Json_helper.JNum n) ->
      Alcotest.(check int) "json requests field" 30 (int_of_float n)
  | _ -> Alcotest.fail "stats json lacks requests"

(* --- histogram unit behaviour -------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Kf_obs.Histogram.create () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Kf_obs.Histogram.quantile h 0.5);
  for v = 1 to 1000 do
    Kf_obs.Histogram.record h (float_of_int v)
  done;
  let p50 = Kf_obs.Histogram.quantile h 0.5 and p99 = Kf_obs.Histogram.quantile h 0.99 in
  (* geometric buckets: estimates land within ~25% above the true value *)
  Alcotest.(check bool) "p50 in range" true (p50 >= 500.0 && p50 <= 650.0);
  Alcotest.(check bool) "p99 in range" true (p99 >= 990.0 && p99 <= 1000.0);
  Alcotest.(check (float 1e-9)) "max is exact" 1000.0 (Kf_obs.Histogram.max_value h);
  Alcotest.(check (float 1e-6)) "mean is exact" 500.5 (Kf_obs.Histogram.mean h);
  let h2 = Kf_obs.Histogram.create () in
  Kf_obs.Histogram.record h2 2000.0;
  Kf_obs.Histogram.merge ~into:h h2;
  Alcotest.(check int) "merge adds counts" 1001 (Kf_obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "merge tracks max" 2000.0 (Kf_obs.Histogram.max_value h)

(* --- driver -------------------------------------------------------------- *)

let test_driver_closed_loop () =
  let cols = 16 in
  let weights = lr_weights ~cols 9 in
  let svc = mk_service ~window_us:100 ~max_batch:8 weights in
  let summary =
    Driver.run svc ~cols
      { Driver.clients = 4; rps = 0.0; duration_s = 0.3; seed = 42 }
  in
  let st = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check bool) "made progress" true (summary.Driver.ok > 0);
  Alcotest.(check int) "driver and service agree on delivered requests"
    summary.Driver.ok st.Service.accepted;
  Alcotest.(check int) "sent = ok + shed + failed" summary.Driver.sent
    (summary.Driver.ok + summary.Driver.shed + summary.Driver.failed);
  Alcotest.(check int) "latency recorded per success" summary.Driver.ok
    (Kf_obs.Histogram.count summary.Driver.latency_us)

(* Open loop against a service that starts 100 ms late: every request
   due during the stall is still sent, and its latency counts from its
   due time, so the stall shows in the latencies instead of thinning
   the load. *)
let test_driver_open_loop_stall () =
  let cols = 16 in
  let weights = lr_weights ~cols 9 in
  let svc = mk_service ~window_us:0 ~start:false weights in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.1;
        Service.start svc)
      ()
  in
  let summary =
    Driver.run svc ~cols
      { Driver.clients = 2; rps = 200.0; duration_s = 0.5; seed = 42 }
  in
  Thread.join starter;
  Service.shutdown svc;
  let lat = summary.Driver.latency_us in
  Alcotest.(check int) "every request due in the run is sent (rps x duration)"
    100 summary.Driver.sent;
  Alcotest.(check int) "all of them are served" 100 summary.Driver.ok;
  (* Due times 0, 10, .., 90 ms per client are sent when the service
     comes up: on average ~55 ms late, ~11 ms over all 100 requests. *)
  Alcotest.(check bool) "the stall is in the mean latency" true
    (Kf_obs.Histogram.mean lat >= 8_000.0);
  Alcotest.(check bool) "and in the requests queued behind it" true
    (Kf_obs.Histogram.quantile lat 0.85 >= 20_000.0)

(* --- telemetry: snapshot JSON, scrape endpoint, SLO ---------------------- *)

let json_num = function
  | Kf_obs.Json.Float f -> f
  | Kf_obs.Json.Int i -> float_of_int i
  | _ -> Alcotest.fail "expected a JSON number"

let json_field obj k =
  match Kf_obs.Json.member k obj with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" k

let test_service_snapshot_json () =
  let cols = 16 in
  let weights = lr_weights ~cols 11 in
  let slo = Kf_obs.Slo.create ~target_us:1e9 ~objective:0.99 "snap-model" in
  let svc =
    Service.create
      ~config:
        {
          Service.window_us = 100;
          max_batch = 16;
          queue_depth = 64;
          adaptive = false;
          window_cap_us = 500;
          deadline_shed = false;
        }
      ~model:"snap-model" ~slo device ~algo:lr ~weights ()
  in
  let tickets =
    Array.init 20 (fun i ->
        submit_exn svc (Service.Dense_row (dense_row ~cols (400 + i))))
  in
  Array.iter (fun t -> ignore (score_exn (Service.await t))) tickets;
  let snap = Service.snapshot svc in
  Service.shutdown svc;
  Alcotest.(check string)
    "model label" "snap-model"
    (match json_field snap "model" with
    | Kf_obs.Json.Str s -> s
    | _ -> Alcotest.fail "model not a string");
  Alcotest.(check int) "requests" 20 (int_of_float (json_num (json_field snap "requests")));
  let lat = json_field snap "latency_us" in
  let p50 = json_num (json_field lat "p50")
  and p95 = json_num (json_field lat "p95")
  and p99 = json_num (json_field lat "p99")
  and mx = json_num (json_field lat "max") in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %g <= p95 %g <= p99 %g <= max %g" p50 p95 p99 mx)
    true
    (p50 <= p95 && p95 <= p99 && p99 <= mx);
  let sj = json_field snap "slo" in
  Alcotest.(check int) "slo saw every request" 20
    (int_of_float (json_num (json_field sj "total")));
  Alcotest.(check int) "no violations at a huge target" 0
    (int_of_float (json_num (json_field sj "violations")));
  Alcotest.(check (float 1e-9))
    "full error budget" 1.0
    (json_num (json_field sj "error_budget"))

let test_scrape_roundtrip () =
  let ep =
    Kf_serve.Scrape.start ~port:0
      ~render:(fun () ->
        Kf_obs.Openmetrics.render
          (Kf_obs.Metrics.snapshot ~process_counters:true ()))
      ()
  in
  Fun.protect ~finally:(fun () -> Kf_serve.Scrape.stop ep) @@ fun () ->
  let port = Kf_serve.Scrape.port ep in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  (match Kf_serve.Scrape.fetch ~port ~path:"/metrics" () with
  | Error e -> Alcotest.failf "/metrics fetch failed: %s" e
  | Ok body ->
      (* must parse as valid OpenMetrics, EOF terminator included *)
      ignore (Om_helper.parse body));
  (match Kf_serve.Scrape.fetch ~port ~path:"/healthz" () with
  | Ok body -> Alcotest.(check string) "healthz" "ok" (String.trim body)
  | Error e -> Alcotest.failf "/healthz fetch failed: %s" e);
  match Kf_serve.Scrape.fetch ~port ~path:"/nope" () with
  | Ok _ -> Alcotest.fail "unknown path served a 200"
  | Error _ -> ()

let test_service_slo_violations () =
  let cols = 16 in
  let weights = lr_weights ~cols 12 in
  (* sub-microsecond target: every request violates *)
  let slo =
    Kf_obs.Slo.create ~window:64 ~target_us:1e-3 ~objective:0.9 "slo-model"
  in
  let svc =
    Service.create
      ~config:
        {
          Service.window_us = 0;
          max_batch = 8;
          queue_depth = 64;
          adaptive = false;
          window_cap_us = 500;
          deadline_shed = false;
        }
      ~model:"slo-model" ~slo device ~algo:lr ~weights ()
  in
  let tickets =
    Array.init 12 (fun i ->
        submit_exn svc (Service.Dense_row (dense_row ~cols (500 + i))))
  in
  Array.iter (fun t -> ignore (score_exn (Service.await t))) tickets;
  Service.shutdown svc;
  Alcotest.(check int) "every request violated" 12 (Kf_obs.Slo.violations slo);
  Alcotest.(check (float 1e-9))
    "budget exhausted" 0.0
    (Kf_obs.Slo.budget_remaining slo);
  Alcotest.(check bool) "not compliant" false (Kf_obs.Slo.compliant slo)

(* --- weight hot-swap ---------------------------------------------------- *)

let test_hot_swap_basic () =
  let cols = 16 in
  let w1 = lr_weights ~cols 21 and w2 = lr_weights ~cols 22 in
  let svc = mk_service ~window_us:0 w1 in
  let row = dense_row ~cols 600 in
  let t = submit_exn svc (Service.Dense_row row) in
  Alcotest.(check bool)
    "initial weights score" true
    (Float.abs (score_exn (Service.await t) -. reference_score w1 row) <= 1e-9);
  Alcotest.(check int) "initial generation is 1" 1 (Service.generation t);
  Alcotest.(check (option int))
    "live generation" (Some 1)
    (Service.live_generation svc);
  let gen = Service.swap svc w2 in
  Alcotest.(check int) "swap publishes generation 2" 2 gen;
  Alcotest.(check (option string))
    "live checksum follows the swap"
    (Some (Kf_ml.Algorithm.weights_checksum w2))
    (Service.live_checksum svc);
  let t = submit_exn svc (Service.Dense_row row) in
  Alcotest.(check bool)
    "new weights score after the swap" true
    (Float.abs (score_exn (Service.await t) -. reference_score w2 row) <= 1e-9);
  Alcotest.(check int) "ticket carries the new generation" 2
    (Service.generation t);
  (* a swap that changes the feature count is a deployment error *)
  Alcotest.match_raises "column-count mismatch rejected"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Service.swap svc (lr_weights ~cols:(cols + 1) 23)));
  Alcotest.(check int) "rejected swap publishes nothing" 2
    (match Service.live_generation svc with Some g -> g | None -> -1);
  Service.shutdown svc

let test_unload_and_provider () =
  let cols = 16 in
  let w = lr_weights ~cols 24 in
  let svc = mk_service ~window_us:0 w in
  Alcotest.(check bool) "starts loaded" true (Service.loaded svc);
  Alcotest.(check bool) "unload drops the weights" true (Service.unload svc);
  Alcotest.(check bool) "second unload is a no-op" false (Service.unload svc);
  Alcotest.(check bool) "not loaded" false (Service.loaded svc);
  Alcotest.(check (option int))
    "no live generation when unloaded" None
    (Service.live_generation svc);
  (* no provider: the batch cannot re-materialise and must fail — the
     request resolves, it is not dropped *)
  let row = dense_row ~cols 601 in
  (match Service.await (submit_exn svc (Service.Dense_row row)) with
  | Service.Failed _ -> ()
  | Service.Score _ -> Alcotest.fail "scored without resident weights");
  (* with a provider the next batch re-materialises bit-exactly *)
  Service.set_provider svc (fun () -> ignore (Service.swap svc w));
  let t = submit_exn svc (Service.Dense_row row) in
  Alcotest.(check bool)
    "re-materialised weights score bit-exactly" true
    (score_exn (Service.await t) = reference_score w row);
  Alcotest.(check bool) "loaded again" true (Service.loaded svc);
  Service.shutdown svc

(* --- multi-model registry ----------------------------------------------- *)

let write_ckpt path weights =
  Kf_resil.Ckpt.write ~path ~algorithm:"lr" ~iteration:0
    (Kf_ml.Algorithm.weights_payload weights)

let with_model_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kf-models-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let registry_config =
  {
    Service.window_us = 0;
    max_batch = 8;
    queue_depth = 64;
    adaptive = false;
    window_cap_us = 500;
    deadline_shed = false;
  }

let probe_model registry name weights =
  let row = dense_row ~cols:weights.Kf_ml.Algorithm.cols 777 in
  match Models.submit registry name (Service.Dense_row row) with
  | None -> Alcotest.failf "%s: probe shed" name
  | Some t -> (
      match Service.await t with
      | Service.Failed msg -> Alcotest.failf "%s: probe failed: %s" name msg
      | Service.Score got ->
          Alcotest.(check bool)
            (Printf.sprintf "%s scores its own weights bit-exactly" name)
            true
            (got = reference_score weights row))

let test_models_lru_order () =
  with_model_dir @@ fun dir ->
  let cols = 16 in
  let mk name seed =
    let path = Filename.concat dir (name ^ ".ckpt") in
    let w = lr_weights ~cols seed in
    write_ckpt path w;
    ({ Models.name; path; slo = None }, w)
  in
  let (sa, wa), (sb, wb), (sg, wg) = (mk "alpha" 31, mk "beta" 32, mk "gamma" 33) in
  (* budget holds exactly two 128-byte models: admitting in spec order
     makes the earliest spec the first LRU victim *)
  let budget = 2 * 8 * cols in
  let registry =
    Models.create ~config:registry_config ~max_resident_bytes:budget device
      [ sa; sb; sg ]
  in
  Fun.protect ~finally:(fun () -> Models.shutdown registry) @@ fun () ->
  Alcotest.(check (list string))
    "names in spec order" [ "alpha"; "beta"; "gamma" ]
    (Models.names registry);
  let resident () =
    List.map (Models.resident registry) [ "alpha"; "beta"; "gamma" ]
  in
  Alcotest.(check (list bool))
    "create evicts the earliest spec first" [ false; true; true ]
    (resident ());
  Alcotest.(check int) "budget fully charged" budget
    (Models.resident_bytes registry);
  (* touching alpha re-admits it; beta is now the least recently used *)
  probe_model registry "alpha" wa;
  Alcotest.(check (list bool))
    "re-admitting alpha evicts beta" [ true; false; true ]
    (resident ());
  (* touching beta evicts gamma (alpha was touched more recently) *)
  probe_model registry "beta" wb;
  Alcotest.(check (list bool))
    "re-admitting beta evicts gamma" [ true; true; false ]
    (resident ());
  (* the evicted model still serves — eviction costs latency, never
     correctness *)
  probe_model registry "gamma" wg;
  Alcotest.(check bool)
    "residency never exceeds the budget" true
    (Models.resident_bytes registry <= budget)

(* A batch for a model the LRU has evicted re-materialises it, and that
   re-admits the model: the least recently used of the others goes, so
   residency stays within the budget.  The request goes straight to the
   service, the way a batch queued before the eviction reaches it. *)
let test_models_remat_readmits () =
  with_model_dir @@ fun dir ->
  let cols = 16 in
  let mk name seed =
    let path = Filename.concat dir (name ^ ".ckpt") in
    let w = lr_weights ~cols seed in
    write_ckpt path w;
    ({ Models.name; path; slo = None }, w)
  in
  let (sa, wa), (sb, _), (sg, _) = (mk "alpha" 51, mk "beta" 52, mk "gamma" 53) in
  let budget = 2 * 8 * cols in
  let registry =
    Models.create ~config:registry_config ~max_resident_bytes:budget device
      [ sa; sb; sg ]
  in
  Fun.protect ~finally:(fun () -> Models.shutdown registry) @@ fun () ->
  let resident () =
    List.map (Models.resident registry) [ "alpha"; "beta"; "gamma" ]
  in
  Alcotest.(check (list bool))
    "create leaves beta and gamma loaded" [ false; true; true ] (resident ());
  let row = dense_row ~cols 919 in
  let t = submit_exn (Models.service registry "alpha") (Service.Dense_row row) in
  Alcotest.(check bool)
    "alpha re-materialises and scores bit-exactly" true
    (score_exn (Service.await t) = reference_score wa row);
  Alcotest.(check (list bool))
    "re-admitting alpha evicts beta, the LRU victim" [ true; false; true ]
    (resident ());
  Alcotest.(check bool)
    "residency stays within the budget" true
    (Models.resident_bytes registry <= budget)

(* A hot swap that lands on a model the LRU has evicted re-admits it,
   the way a re-materialisation does: the least recently used of the
   others goes, so residency stays within the budget, and the model
   serves the new generation. *)
let test_models_poll_readmits () =
  with_model_dir @@ fun dir ->
  let cols = 16 in
  let mk name seed =
    let path = Filename.concat dir (name ^ ".ckpt") in
    write_ckpt path (lr_weights ~cols seed);
    { Models.name; path; slo = None }
  in
  let sa = mk "alpha" 61 and sb = mk "beta" 62 and sg = mk "gamma" 63 in
  let budget = 2 * 8 * cols in
  let registry =
    Models.create ~config:registry_config ~max_resident_bytes:budget device
      [ sa; sb; sg ]
  in
  Fun.protect ~finally:(fun () -> Models.shutdown registry) @@ fun () ->
  let resident () =
    List.map (Models.resident registry) [ "alpha"; "beta"; "gamma" ]
  in
  Alcotest.(check (list bool))
    "create evicts alpha" [ false; true; true ] (resident ());
  let w' = lr_weights ~cols 64 in
  write_ckpt sa.Models.path w';
  (match List.assoc "alpha" (Models.poll registry) with
  | Kf_resil.Reload.Swapped _ -> ()
  | _ -> Alcotest.fail "alpha's rewritten file must swap in");
  Alcotest.(check (list bool))
    "the swap re-admits alpha and evicts beta, the LRU victim"
    [ true; false; true ] (resident ());
  Alcotest.(check bool)
    "residency stays within the budget" true
    (Models.resident_bytes registry <= budget);
  probe_model registry "alpha" w'

let test_models_poll_outcomes () =
  with_model_dir @@ fun dir ->
  let cols = 16 in
  let path = Filename.concat dir "m.ckpt" in
  let w1 = lr_weights ~cols 41 and w2 = lr_weights ~cols 42 in
  write_ckpt path w1;
  (* the budget holds exactly one generation of [w1]'s size *)
  let registry =
    Models.create ~config:registry_config ~max_resident_bytes:(8 * cols)
      device
      [ { Models.name = "pm"; path; slo = None } ]
  in
  Fun.protect ~finally:(fun () -> Models.shutdown registry) @@ fun () ->
  let svc = Models.service registry "pm" in
  let outcome () =
    match Models.poll registry with
    | [ ("pm", o) ] -> o
    | _ -> Alcotest.fail "poll must report exactly the one model"
  in
  (match outcome () with
  | Kf_resil.Reload.Unchanged -> ()
  | _ -> Alcotest.fail "untouched file must dedup to Unchanged");
  (* a torn file is rejected and the old generation keeps serving *)
  write_ckpt path w2;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd ((Unix.fstat fd).Unix.st_size / 2);
  Unix.close fd;
  (match outcome () with
  | Kf_resil.Reload.Rejected _ -> ()
  | _ -> Alcotest.fail "torn file must be rejected");
  Alcotest.(check (option int))
    "old generation keeps serving after a rejection" (Some 1)
    (Service.live_generation svc);
  probe_model registry "pm" w1;
  (* a decodable checkpoint with the wrong shape is rejected at
     publication, not published half-way *)
  write_ckpt path (lr_weights ~cols:(cols + 4) 43);
  (match outcome () with
  | Kf_resil.Reload.Rejected _ -> ()
  | _ -> Alcotest.fail "column-count change must be rejected");
  Alcotest.(check (option int))
    "still on generation 1" (Some 1)
    (Service.live_generation svc);
  (* so is one the budget cannot hold, even with the right columns:
     its extra field is another [8 * cols] bytes, and neither the live
     generation nor the residency charge changes *)
  write_ckpt path
    {
      (lr_weights ~cols 44) with
      Kf_ml.Algorithm.extra =
        [ ("model.pad", Kf_resil.Ckpt.Floats (Array.make cols 0.0)) ];
    };
  (match outcome () with
  | Kf_resil.Reload.Rejected _ -> ()
  | _ -> Alcotest.fail "a candidate over the budget must be rejected");
  Alcotest.(check (option int))
    "an oversized candidate does not go live" (Some 1)
    (Service.live_generation svc);
  Alcotest.(check int)
    "residency unchanged" (8 * cols)
    (Models.resident_bytes registry);
  probe_model registry "pm" w1;
  (* the healed file swaps in, verified, and serves *)
  write_ckpt path w2;
  (match outcome () with
  | Kf_resil.Reload.Swapped (_, sum) ->
      Alcotest.(check (option string))
        "published checksum is the file's" (Some sum)
        (Service.live_checksum svc)
  | _ -> Alcotest.fail "healed file must swap in");
  Alcotest.(check (option int))
    "swap bumped the generation" (Some 2)
    (Service.live_generation svc);
  probe_model registry "pm" w2

let test_models_metric_labels () =
  with_model_dir @@ fun dir ->
  let cols = 16 in
  let mk name seed =
    let path = Filename.concat dir (name ^ ".ckpt") in
    let w = lr_weights ~cols seed in
    write_ckpt path w;
    { Models.name; path; slo = None }
  in
  let specs = [ mk "lbl-a" 51; mk "lbl-b" 52 ] in
  let budget = 8 * cols in
  (* budget holds one model: every cross-model submit evicts, so both
     eviction and re-materialisation counters move *)
  let registry =
    Models.create ~config:registry_config ~max_resident_bytes:budget device
      specs
  in
  Fun.protect ~finally:(fun () -> Models.shutdown registry) @@ fun () ->
  List.iter
    (fun name ->
      match Models.submit registry name (Service.Dense_row (dense_row ~cols 88)) with
      | None -> Alcotest.failf "%s shed" name
      | Some t -> ignore (score_exn (Service.await t)))
    [ "lbl-a"; "lbl-b"; "lbl-a" ];
  let body =
    Kf_obs.Openmetrics.render (Kf_obs.Metrics.snapshot ())
  in
  ignore (Om_helper.parse body);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "scrape carries %s" needle)
        true
        (Astring.String.is_infix ~affix:needle body))
    [
      "kf_serve_evictions";
      "kf_serve_rematerializations";
      "kf_serve_resident_bytes";
      "model=\"lbl-a\"";
      "model=\"lbl-b\"";
    ]

let suite =
  [
    Alcotest.test_case "scores match reference" `Quick
      test_scores_match_reference;
    Alcotest.test_case "sparse rows match dense" `Quick
      test_sparse_rows_match_dense;
    Alcotest.test_case "row validation" `Quick test_row_validation;
    Alcotest.test_case "exactly one reply (fused)" `Quick test_replies_fused;
    Alcotest.test_case "exactly one reply (library)" `Quick
      test_replies_library;
    Alcotest.test_case "exactly one reply (host, pool=1)" `Quick
      test_replies_host_pool1;
    Alcotest.test_case "exactly one reply (host, pool=2)" `Quick
      test_replies_host_pool2;
    Alcotest.test_case "batched equals unbatched" `Quick
      test_batched_equals_unbatched;
    Alcotest.test_case "shed only above queue bound" `Quick
      test_shed_only_above_bound;
    Alcotest.test_case "shutdown drains unstarted queue" `Quick
      test_shutdown_drains_unstarted;
    Alcotest.test_case "stats and histograms" `Quick test_stats_histograms;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "driver closed loop" `Quick test_driver_closed_loop;
    Alcotest.test_case "driver open loop counts a stall" `Quick
      test_driver_open_loop_stall;
    Alcotest.test_case "service snapshot json" `Quick
      test_service_snapshot_json;
    Alcotest.test_case "scrape endpoint round-trip" `Quick
      test_scrape_roundtrip;
    Alcotest.test_case "slo violations through service" `Quick
      test_service_slo_violations;
    Alcotest.test_case "hot swap: atomic generation publication" `Quick
      test_hot_swap_basic;
    Alcotest.test_case "unload and provider re-materialisation" `Quick
      test_unload_and_provider;
    Alcotest.test_case "models: LRU residency order" `Quick
      test_models_lru_order;
    Alcotest.test_case "models: re-materialisation re-admits" `Quick
      test_models_remat_readmits;
    Alcotest.test_case "models: poll outcomes" `Quick test_models_poll_outcomes;
    Alcotest.test_case "models: a hot swap re-admits an evicted model" `Quick
      test_models_poll_readmits;
    Alcotest.test_case "models: per-model metric labels" `Quick
      test_models_metric_labels;
  ]
