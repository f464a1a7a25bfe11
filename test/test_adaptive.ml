(* The adaptive micro-batching window, proven rather than eyeballed:
   qcheck properties over the AIMD controller (cap invariant, monotone
   collapse under sparse traffic, the growth gate), adaptive-vs-fixed
   latency comparisons on generated traces through [Controller.Sim],
   deadline-aware shedding decisions, and the live service holding its
   window at zero when traffic is sequential. *)
open Gpu_sim
open Kf_serve
module C = Controller
module Slo = Kf_obs.Slo

let device = Device.gtx_titan

let lr = Kf_ml.Registry.find "lr"

let lr_weights ~cols seed =
  let rng = Matrix.Rng.create seed in
  let w = Matrix.Gen.vector rng cols in
  { Kf_ml.Algorithm.vecs = [| w |]; cols; extra = [] }

let dense_row ~cols seed =
  let rng = Matrix.Rng.create seed in
  Array.init cols (fun _ -> (2.0 *. Matrix.Rng.uniform rng) -. 1.0)

let reference_score weights row =
  let input = Fusion.Executor.Dense (Matrix.Dense.of_arrays [| row |]) in
  (Kf_ml.Algorithm.predict lr weights input).(0)

let mk_service ?(max_batch = 32) ?(window_cap_us = 500) weights =
  Service.create
    ~config:
      {
        Service.window_us = 0;
        max_batch;
        queue_depth = 1024;
        adaptive = true;
        window_cap_us;
        deadline_shed = false;
      }
    device ~algo:lr ~weights ()

(* --- AIMD arithmetic, step by step -------------------------------------- *)

let test_default_params () =
  let p = C.default_params ~max_batch:32 () in
  Alcotest.(check int) "cap" 500 p.C.cap_us;
  Alcotest.(check int) "floor" 5 p.C.floor_us;
  Alcotest.(check int) "incr = cap/25" 20 p.C.incr_us;
  Alcotest.(check (float 1e-9)) "decay" 0.5 p.C.decay;
  Alcotest.(check int) "target = max_batch" 32 p.C.target;
  let tight = C.default_params ~cap_us:10 ~max_batch:4 () in
  Alcotest.(check int) "incr never 0" 1 tight.C.incr_us

let test_validation () =
  let p = C.default_params ~max_batch:32 () in
  let invalid f = Alcotest.match_raises "rejects" (function
      | Invalid_argument _ -> true
      | _ -> false)
      (fun () -> ignore (f ()))
  in
  invalid (fun () -> C.default_params ~cap_us:(-1) ~max_batch:32 ());
  invalid (fun () -> C.default_params ~max_batch:0 ());
  invalid (fun () ->
      C.observe { p with C.decay = 1.0 } C.initial { C.batch = 2; queued = 0 });
  invalid (fun () ->
      C.observe { p with C.incr_us = 0 } C.initial { C.batch = 2; queued = 0 });
  invalid (fun () -> C.observe p C.initial { C.batch = 0; queued = 0 });
  invalid (fun () -> C.observe p C.initial { C.batch = 2; queued = -1 });
  invalid (fun () ->
      C.Sim.run
        ~cost:{ C.Sim.overhead_us = -1.0; per_row_us = 1.0 }
        ~policy:(C.Sim.Fixed 0) [| 0.0 |]);
  invalid (fun () ->
      C.Sim.run
        ~cost:{ C.Sim.overhead_us = 1.0; per_row_us = 1.0 }
        ~policy:(C.Sim.Fixed 0)
        [| 5.0; 1.0 |])

(* Walk the exact default-parameter trajectory: grow only while batches
   grow, halve the moment they stop, snap to 0 below the floor. *)
let test_aimd_trajectory () =
  let p = C.default_params ~max_batch:32 () in
  let step s batch queued = C.observe p s { C.batch; queued } in
  let w = C.window_us in
  Alcotest.(check int) "cold start at 0" 0 (w C.initial);
  let s = step C.initial 2 1 in
  Alcotest.(check int) "first growth: +incr" 20 (w s);
  let s = step s 3 0 in
  Alcotest.(check int) "batch grew again: +incr" 40 (w s);
  let s = step s 3 0 in
  Alcotest.(check int) "same batch: decay" 20 (w s);
  let s = step s 2 0 in
  Alcotest.(check int) "shrinking batch: decay" 10 (w s);
  let s = step s 1 0 in
  Alcotest.(check int) "singleton: decay to the floor" 5 (w s);
  let s = step s 1 0 in
  Alcotest.(check int) "below the floor: snap to 0" 0 (w s)

let test_full_batch_not_binding () =
  let p = C.default_params ~max_batch:32 () in
  let s = C.observe p C.initial { C.batch = 2; queued = 0 } in
  let s = C.observe p s { C.batch = 3; queued = 0 } in
  Alcotest.(check int) "ramped" 40 (C.window_us s);
  let s = C.observe p s { C.batch = 32; queued = 10 } in
  Alcotest.(check int) "full batch leaves the window alone" 40 (C.window_us s);
  let s = C.observe p s { C.batch = 32; queued = 0 } in
  Alcotest.(check int) "still untouched" 40 (C.window_us s);
  (* the first under-filled batch after a run of full ones decays: it
     shrank relative to the cap-sized predecessor *)
  let s = C.observe p s { C.batch = 16; queued = 0 } in
  Alcotest.(check int) "post-backlog partial batch decays" 20 (C.window_us s)

let test_cap_clamp () =
  let p =
    { C.cap_us = 100; floor_us = 5; incr_us = 60; decay = 0.5; target = 32 }
  in
  let s = C.observe p C.initial { C.batch = 2; queued = 0 } in
  Alcotest.(check int) "one increment" 60 (C.window_us s);
  let s = C.observe p s { C.batch = 3; queued = 0 } in
  Alcotest.(check int) "clamped at cap" 100 (C.window_us s);
  (* a singleton that leaves a backlog behind still signals co-arrival:
     the queue built up while the server was busy *)
  let s' = C.observe p C.initial { C.batch = 1; queued = 7 } in
  Alcotest.(check int) "backlogged singleton grows" 60 (C.window_us s')

(* --- controller properties over random traces --------------------------- *)

let params_gen =
  let open QCheck.Gen in
  int_range 0 500 >>= fun cap_us ->
  int_range 0 20 >>= fun floor_us ->
  int_range 1 100 >>= fun incr_us ->
  oneofl [ 0.0; 0.25; 0.5; 0.75; 0.9 ] >>= fun decay ->
  int_range 1 64 >>= fun target ->
  return { C.cap_us; floor_us; incr_us; decay; target }

let obs_gen =
  QCheck.Gen.(
    map2 (fun batch queued -> { C.batch; queued }) (int_range 1 64)
      (int_range 0 100))

let print_params p =
  Printf.sprintf "{cap=%d; floor=%d; incr=%d; decay=%g; target=%d}" p.C.cap_us
    p.C.floor_us p.C.incr_us p.C.decay p.C.target

let print_trace (p, trace) =
  Printf.sprintf "%s [%s]" (print_params p)
    (String.concat "; "
       (List.map
          (fun o -> Printf.sprintf "b%d/q%d" o.C.batch o.C.queued)
          trace))

let prop_cap_invariant =
  QCheck.Test.make ~name:"window stays within [0, cap] on any trace"
    ~count:300
    (QCheck.make ~print:print_trace
       QCheck.Gen.(
         params_gen >>= fun p ->
         list_size (int_range 0 200) obs_gen >>= fun trace -> return (p, trace)))
    (fun (p, trace) ->
      let ok = ref true in
      let _final =
        List.fold_left
          (fun s o ->
            let s = C.observe p s o in
            let w = C.window_us s in
            if w < 0 || w > p.C.cap_us then ok := false;
            s)
          C.initial trace
      in
      !ok)

(* From any reachable state, sparse traffic (singletons, empty queue)
   collapses the window monotonically, all the way to 0. *)
let prop_sparse_collapse =
  QCheck.Test.make ~name:"sparse traffic shrinks the window monotonically to 0"
    ~count:300
    (QCheck.make ~print:print_trace
       QCheck.Gen.(
         params_gen >>= fun p ->
         list_size (int_range 0 50) obs_gen >>= fun warmup ->
         return (p, warmup)))
    (fun (p, warmup) ->
      let s = List.fold_left (C.observe p) C.initial warmup in
      let sparse = { C.batch = 1; queued = 0 } in
      let monotone = ref true in
      let s =
        List.fold_left
          (fun s () ->
            let s' = C.observe p s sparse in
            if C.window_us s' > C.window_us s then monotone := false;
            s')
          s
          (List.init 200 (fun _ -> ()))
      in
      !monotone && C.window_us s = 0)

(* The growth gate: a closed-loop population of k < target sends batches
   of k forever — the window must fall, never ratchet toward the cap. *)
let prop_growth_gate =
  QCheck.Test.make
    ~name:"constant under-filled batches never grow the window" ~count:300
    (QCheck.make ~print:print_trace
       QCheck.Gen.(
         params_gen >>= fun p0 ->
         let p = { p0 with C.target = Stdlib.max 3 p0.C.target } in
         int_range 2 (p.C.target - 1) >>= fun k ->
         list_size (int_range 0 50) obs_gen >>= fun warmup ->
         return (p, warmup @ [ { C.batch = k; queued = k } ])))
    (fun (p, trace) ->
      (* the last warmup element fixes last_batch = k; from here the
         constant-k stream must be non-increasing and end at 0 *)
      let k = (List.nth trace (List.length trace - 1)).C.batch in
      let s = List.fold_left (C.observe p) C.initial trace in
      let monotone = ref true in
      let s =
        List.fold_left
          (fun s () ->
            let s' = C.observe p s { C.batch = k; queued = k } in
            if C.window_us s' > C.window_us s then monotone := false;
            s')
          s
          (List.init 200 (fun _ -> ()))
      in
      !monotone && C.window_us s = 0)

(* --- adaptive vs fixed on simulated traces ------------------------------ *)

let cost = { C.Sim.overhead_us = 100.0; per_row_us = 2.0 }

let adaptive = C.Sim.Adaptive (C.default_params ~max_batch:32 ())

let print_arrivals a =
  Printf.sprintf "[%s]"
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%g") a)))

(* Sparse traffic: gaps longer than any window, so a fixed window taxes
   every request by the full wait while adaptive pays nothing. *)
let sparse_trace_gen =
  QCheck.Gen.(
    list_size (int_range 10 40) (int_range 600 2000) >>= fun gaps ->
    let t = ref 0.0 in
    return
      (Array.of_list
         (List.map
            (fun g ->
              t := !t +. float_of_int g;
              !t)
            gaps)))

let prop_sim_sparse =
  QCheck.Test.make
    ~name:"sim: adaptive strictly beats every fixed window on sparse traces"
    ~count:100
    (QCheck.make ~print:print_arrivals sparse_trace_gen)
    (fun arrivals ->
      let a = C.Sim.run ~cost ~policy:adaptive arrivals in
      a.C.Sim.max_window_us = 0
      && List.for_all
           (fun w ->
             let f = C.Sim.run ~cost ~policy:(C.Sim.Fixed w) arrivals in
             a.C.Sim.mean_us < f.C.Sim.mean_us
             && a.C.Sim.p99_us <= f.C.Sim.p99_us)
           [ 50; 200; 500 ])

(* Bursty traffic: groups of exact co-arrivals.  Fixed 0 is optimal here
   (the whole burst is already together); adaptive pays only a few
   decaying probe windows before collapsing onto it, so it must land
   within a small factor of the best fixed choice — and far below the
   big fixed window. *)
let bursty_trace_gen =
  QCheck.Gen.(
    int_range 5 12 >>= fun groups ->
    int_range 2 24 >>= fun k ->
    return
      (Array.init (groups * k) (fun i -> float_of_int (i / k) *. 5000.0)))

let prop_sim_bursty =
  QCheck.Test.make
    ~name:"sim: adaptive within 1.25x of the best fixed window on bursts"
    ~count:100
    (QCheck.make ~print:print_arrivals bursty_trace_gen)
    (fun arrivals ->
      let a = C.Sim.run ~cost ~policy:adaptive arrivals in
      let fixed w = C.Sim.run ~cost ~policy:(C.Sim.Fixed w) arrivals in
      let best =
        List.fold_left Float.min Float.infinity
          (List.map (fun w -> (fixed w).C.Sim.mean_us) [ 0; 50; 200; 500 ])
      in
      a.C.Sim.mean_us <= (best *. 1.25) +. 1.0
      && a.C.Sim.mean_us < (fixed 500).C.Sim.mean_us)

let prop_sim_window_bounded =
  QCheck.Test.make
    ~name:"sim: the adaptive window honours its cap on any trace" ~count:100
    (QCheck.make
       ~print:(fun (cap, a) -> Printf.sprintf "cap=%d %s" cap (print_arrivals a))
       QCheck.Gen.(
         oneofl [ 0; 5; 50; 500 ] >>= fun cap ->
         list_size (int_range 1 150) (int_range 0 1000) >>= fun gaps ->
         let t = ref 0.0 in
         let arrivals =
           Array.of_list
             (List.map
                (fun g ->
                  t := !t +. float_of_int g;
                  !t)
                gaps)
         in
         return (cap, arrivals)))
    (fun (cap, arrivals) ->
      let p = C.default_params ~cap_us:cap ~max_batch:8 () in
      let r = C.Sim.run ~max_batch:8 ~cost ~policy:(C.Sim.Adaptive p) arrivals in
      r.C.Sim.max_window_us <= cap
      && Array.length r.C.Sim.latency_us = Array.length arrivals
      && Array.for_all (fun l -> l >= cost.C.Sim.overhead_us) r.C.Sim.latency_us)

(* --- deadline-aware shedding -------------------------------------------- *)

let test_deadline_shed () =
  let slo =
    Slo.create ~window:64 ~target_us:1000.0 ~objective:0.9 "adaptive-shed-test"
  in
  Alcotest.(check bool)
    "healthy budget absorbs predicted violations" false
    (Slo.deadline_shed slo ~estimated_us:5000.0);
  (* one violation in a hundred requests: budget dented, not spent *)
  Slo.record slo ~latency_us:5000.0 ~ok:true;
  for _ = 1 to 40 do
    Slo.record slo ~latency_us:100.0 ~ok:true
  done;
  Alcotest.(check bool)
    "dented budget still absorbs" false
    (Slo.deadline_shed slo ~estimated_us:5000.0);
  (* burn the budget: every request a violation *)
  for _ = 1 to 40 do
    Slo.record slo ~latency_us:5000.0 ~ok:true
  done;
  Alcotest.(check bool) "budget exhausted" false (Slo.compliant slo);
  Alcotest.(check bool)
    "exhausted budget sheds predicted violations" true
    (Slo.deadline_shed slo ~estimated_us:5000.0);
  Alcotest.(check bool)
    "predicted-compliant requests are never shed" false
    (Slo.deadline_shed slo ~estimated_us:100.0);
  Alcotest.match_raises "headroom outside [0, 1] rejected"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore (Slo.deadline_shed ~headroom:1.5 slo ~estimated_us:1.0))

(* --- the live service --------------------------------------------------- *)

(* Sequential traffic — each request awaited before the next — is the
   sparsest possible load: every batch is a singleton with an empty
   queue, so the controller must hold the window at 0 throughout. *)
let test_service_sparse_holds_zero () =
  let cols = 16 in
  let weights = lr_weights ~cols 3 in
  let svc = mk_service weights in
  for i = 0 to 19 do
    let row = dense_row ~cols (300 + i) in
    let t =
      match Service.submit svc (Service.Dense_row row) with
      | Some t -> t
      | None -> Alcotest.fail "request shed below queue bound"
    in
    (match Service.await t with
    | Service.Score got ->
        let want = reference_score weights row in
        Alcotest.(check bool)
          (Printf.sprintf "request %d scores correctly" i)
          true
          (Float.abs (got -. want) <= 1e-9)
    | Service.Failed msg -> Alcotest.failf "request failed: %s" msg);
    Alcotest.(check int)
      (Printf.sprintf "window still 0 after request %d" i)
      0
      (Service.current_window_us svc)
  done;
  let st = Service.stats svc in
  Alcotest.(check int) "all accepted" 20 st.Service.accepted;
  Alcotest.(check int) "every batch a singleton" 20 st.Service.batches;
  Alcotest.(check int) "no failures" 0 st.Service.failures;
  Service.shutdown svc

(* Pipelined load must coalesce: with 8 requests in flight, batches form
   while the server executes, so the service does strictly fewer
   dispatches than requests — and the window never escapes its cap. *)
let test_service_pipelined_coalesces () =
  let cols = 16 in
  let weights = lr_weights ~cols 4 in
  let svc = mk_service ~window_cap_us:100 weights in
  let s =
    Driver.run_inflight svc ~cols ~inflight:8 ~duration_s:0.2 ~seed:20260808
  in
  Alcotest.(check int) "no failures" 0 s.Driver.failed;
  Alcotest.(check int) "no sheds" 0 s.Driver.shed;
  Alcotest.(check bool) "made progress" true (s.Driver.ok > 100);
  let st = Service.stats svc in
  Alcotest.(check bool)
    "pipelined load coalesced into fewer batches" true
    (st.Service.batches < st.Service.accepted);
  Alcotest.(check bool)
    "window within cap" true
    (Service.current_window_us svc <= 100);
  Service.shutdown svc

let suite =
  [
    Alcotest.test_case "default params" `Quick test_default_params;
    Alcotest.test_case "parameter and observation validation" `Quick
      test_validation;
    Alcotest.test_case "AIMD trajectory, step by step" `Quick
      test_aimd_trajectory;
    Alcotest.test_case "full batches leave the window alone" `Quick
      test_full_batch_not_binding;
    Alcotest.test_case "additive increase clamps at the cap" `Quick
      test_cap_clamp;
    QCheck_alcotest.to_alcotest prop_cap_invariant;
    QCheck_alcotest.to_alcotest prop_sparse_collapse;
    QCheck_alcotest.to_alcotest prop_growth_gate;
    QCheck_alcotest.to_alcotest prop_sim_sparse;
    QCheck_alcotest.to_alcotest prop_sim_bursty;
    QCheck_alcotest.to_alcotest prop_sim_window_bounded;
    Alcotest.test_case "deadline-aware shedding" `Quick test_deadline_shed;
    Alcotest.test_case "sequential traffic holds the window at 0" `Quick
      test_service_sparse_holds_zero;
    Alcotest.test_case "pipelined traffic coalesces under the cap" `Quick
      test_service_pipelined_coalesces;
  ]
