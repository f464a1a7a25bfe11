(* Unit tests for the benchmark's pure rules (Harness). *)

open Harness

let feq = Alcotest.(check (float 1e-9))

let ints = Alcotest.(check int)

let bools = Alcotest.(check bool)

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

(* --- percentile rule ------------------------------------------------------ *)

let percentile_rule () =
  let s = sorted (one_to 100) in
  feq "p50 of 1..100" 50.0 (percentile s 0.5);
  feq "p90 of 1..100" 90.0 (percentile s 0.9);
  feq "p100 is the maximum" 100.0 (percentile s 1.0);
  feq "p0 is the minimum" 1.0 (percentile s 0.0);
  feq "nearest rank rounds up" 2.0 (percentile (sorted [| 3.0; 1.0; 2.0 |]) 0.5);
  ints "ten samples beyond p90 of 100" 10 (beyond ~n:100 0.9);
  bools "p90 needs 100 samples" true (supported ~n:100 0.9);
  bools "99 samples leave 9 beyond p90" false (supported ~n:99 0.9);
  bools "p99 needs 1000 samples" true (supported ~n:1000 0.99);
  bools "999 samples leave 9 beyond p99" false (supported ~n:999 0.99);
  feq "median ignores order" 3.0 (median [| 5.0; 1.0; 3.0; 4.0; 2.0 |])

(* statistics.quantiles(data, n=4) in Python *)
let quartiles_match_python () =
  let check name data (a, b, c) =
    let q1, q2, q3 = quartiles data in
    feq (name ^ " q1") a q1;
    feq (name ^ " q2") b q2;
    feq (name ^ " q3") c q3
  in
  check "1..10" (one_to 10) (2.75, 5.5, 8.25);
  check "two samples" [| 1.0; 2.0 |] (0.75, 1.5, 2.25);
  check "unsorted" [| 5.0; 1.0; 4.0; 2.0; 8.0; 7.0; 3.0 |] (2.0, 4.0, 7.0);
  Alcotest.check_raises "one sample"
    (Invalid_argument "Harness.quartiles: need at least two samples") (fun () ->
      ignore (quartiles [| 1.0 |]))

(* --- span self time -------------------------------------------------------- *)

let span ?(tid = 0) s_name ts dur = { s_name; tid; ts; dur }

let self_of rows name =
  match List.find_opt (fun r -> r.r_name = name) rows with
  | Some r -> (r.count, r.total_ns, r.self_ns)
  | None -> Alcotest.failf "no row for %s" name

let triple = Alcotest.(check (triple int int int))

let nested_self_time () =
  let rows =
    self_times
      [
        span "solve" 0 100;
        span "op" 10 30;
        span "kernel" 20 10;
        span "op" 50 10;
        (* another domain's work inside the same interval is not a child *)
        span ~tid:1 "kernel" 15 80;
      ]
  in
  triple "parent minus both children" (1, 100, 60) (self_of rows "solve");
  triple "op minus its kernel, summed over two ops" (2, 40, 30) (self_of rows "op");
  triple "kernels on both domains" (2, 90, 90) (self_of rows "kernel")

let overlapping_children () =
  (* requests recorded after the fact overlap without nesting: each is a
     child of the window, and the window loses their union once *)
  let rows =
    self_times [ span "window" 0 100; span "req" 10 40; span "req" 30 40 ]
  in
  triple "union of overlapping children" (1, 100, 40) (self_of rows "window");
  triple "neither request contains the other" (2, 80, 80) (self_of rows "req")

let same_start_nests () =
  (* a parent and its first child starting on the same tick *)
  let rows = self_times [ span "child" 5 10; span "parent" 5 50 ] in
  triple "longer span is the parent" (1, 50, 40) (self_of rows "parent");
  triple "child keeps its time" (1, 10, 10) (self_of rows "child")

(* --- due-time latency ------------------------------------------------------ *)

let due_time_latency () =
  ints "request 0 is due at the start" 1_000 (due_ns ~start_ns:1_000 ~rate:50_000.0 0);
  ints "request 3 at 50k/s" 61_000 (due_ns ~start_ns:1_000 ~rate:50_000.0 3);
  ints "no drift over a million sends" (1_000 + 20_000_000_000)
    (due_ns ~start_ns:1_000 ~rate:50_000.0 1_000_000);
  ints "non-integral interval rounds" 333_333_333 (due_ns ~start_ns:0 ~rate:3.0 1);
  ints "lag plus service time" 8_500
    (due_latency_ns ~due_ns:1_000 ~submit_ns:1_500 ~seen_ns:9_500);
  (* a generator stalled 1 ms charges the stall to the request *)
  ints "stall is charged" 1_008_000
    (due_latency_ns ~due_ns:0 ~submit_ns:1_000_000 ~seen_ns:1_008_000)

let unserved_latency () =
  let l = Array.init 10 (fun i -> float_of_int (10 + i)) in
  feq "all served" 14.0 (latency_percentile l 0.5);
  l.(0) <- nan;
  l.(1) <- nan;
  bools "unserved requests are slower than any served" true
    (latency_percentile l 0.9 = infinity);
  feq "and push the median up" 16.0 (latency_percentile l 0.5)

let best_rates () =
  (* solves of 100 ms with a stretch of three at 50 ms *)
  let d = Array.map (fun ms -> ms *. 1e6) [| 100.; 100.; 50.; 50.; 50.; 100.; 10. |] in
  feq "best stretch of three" 20.0 (best_rate d ~k:3);
  feq "one lucky solve sets k = 1" 100.0 (best_rate d ~k:1);
  feq "two fast solves beat the lucky one and its neighbour" 20.0 (best_rate d ~k:2);
  feq "k capped at the number of solves" (7.0 /. 0.46) (best_rate d ~k:100);
  Alcotest.check_raises "no solves" (Invalid_argument "Harness.best_rate: no samples")
    (fun () -> ignore (best_rate [||] ~k:5))

(* --- metric names ---------------------------------------------------------- *)

let all_metrics = end_to_end @ per_layer

let names_valid () =
  List.iter
    (fun m ->
      bools ("valid name " ^ m.name) true (valid_name m.name);
      bools ("valid unit of " ^ m.name) true (valid_unit m.unit_))
    all_metrics;
  List.iter (fun w -> bools ("valid workload name " ^ w) true (valid_name w)) workloads;
  let names = List.map (fun m -> m.name) all_metrics @ workloads in
  ints "names are used once" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> bools ("rejects " ^ String.escaped bad) false (valid_name bad))
    [ ""; "_lead"; ".lead"; "has space"; "a/b"; "a:b"; String.make 65 'a' ];
  bools "64 characters is the limit" true (valid_name (String.make 64 'a'));
  bools "rejects a 17-character unit" false (valid_unit (String.make 17 's'))

let bounds () =
  List.iter
    (fun m ->
      match m.bound with
      | Some b -> bools ("bound of " ^ m.name) true (b > 0.0 && b <= 0.25)
      | None -> Alcotest.failf "%s has no bound" m.name)
    end_to_end;
  List.iter (fun m -> bools (m.name ^ " has no bound") true (m.bound = None)) per_layer;
  let setup = List.find (fun m -> m.name = "setup_s") end_to_end in
  bools "setup_s in s, lower" true (setup.unit_ = "s" && setup.better = Lower);
  List.iter
    (fun m -> bools ("setup_s bound >= " ^ m.name) true (setup.bound >= m.bound))
    end_to_end

(* BENCHMARK.json and the catalogue must say the same thing. *)
let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let json = Kf_obs.Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let member k j =
    match Kf_obs.Json.member k j with Some v -> v | None -> Alcotest.failf "no %s" k
  in
  let str = function Kf_obs.Json.Str s -> s | _ -> Alcotest.fail "not a string" in
  let num = function
    | Kf_obs.Json.Float f -> f
    | Kf_obs.Json.Int i -> float_of_int i
    | _ -> Alcotest.fail "not a number"
  in
  let list k = match member k json with Kf_obs.Json.List l -> l | _ -> [] in
  let describe m =
    Printf.sprintf "%s %s %s %s" m.name m.unit_
      (match m.better with Lower -> "lower" | Higher -> "higher")
      (match m.bound with Some b -> Printf.sprintf "%g" b | None -> "-")
  in
  let of_json j =
    describe
      {
        name = str (member "name" j);
        unit_ = str (member "unit" j);
        better = (if str (member "better" j) = "lower" then Lower else Higher);
        bound = Option.map num (Kf_obs.Json.member "bound" j);
      }
  in
  Alcotest.(check (list string)) "end_to_end"
    (List.map describe end_to_end)
    (List.map of_json (list "end_to_end"));
  Alcotest.(check (list string)) "per_layer"
    (List.map describe per_layer)
    (List.map of_json (list "per_layer"));
  Alcotest.(check (list string)) "workloads" workloads
    (List.map (fun w -> str (member "name" w)) (list "workloads"))

(* --- result line ------------------------------------------------------------ *)

let result_line_roundtrip () =
  let values = List.mapi (fun i m -> (m, 1.0 /. float_of_int (i + 3))) end_to_end in
  let line = result_line ~correct:true ~attempted:120 ~failed:0 values in
  let json = Kf_obs.Json.parse line in
  let get k = Option.get (Kf_obs.Json.member k json) in
  bools "correct" true (get "correct" = Kf_obs.Json.Bool true);
  bools "attempted" true (get "attempted" = Kf_obs.Json.Int 120);
  List.iter
    (fun (m, v) ->
      let entry = Option.get (Kf_obs.Json.member m.name (get "metrics")) in
      bools (m.name ^ " keeps every digit") true
        (Kf_obs.Json.member "value" entry = Some (Kf_obs.Json.Float v));
      bools (m.name ^ " unit") true
        (Kf_obs.Json.member "unit" entry = Some (Kf_obs.Json.Str m.unit_)))
    values;
  Alcotest.check_raises "non-finite values are refused"
    (Invalid_argument "Harness.result_line: setup_s is not finite") (fun () ->
      ignore
        (result_line ~correct:true ~attempted:1 ~failed:0
           [ (List.hd end_to_end, nan) ]))

let () =
  Alcotest.run "kfbench harness"
    [
      ( "statistics",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quartiles match Python" `Quick quartiles_match_python;
        ] );
      ( "self time",
        [
          Alcotest.test_case "nested spans" `Quick nested_self_time;
          Alcotest.test_case "overlapping children" `Quick overlapping_children;
          Alcotest.test_case "same start" `Quick same_start_nests;
        ] );
      ( "latency",
        [
          Alcotest.test_case "due-time arithmetic" `Quick due_time_latency;
          Alcotest.test_case "unserved requests" `Quick unserved_latency;
          Alcotest.test_case "best sustained rate" `Quick best_rates;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "name validity" `Quick names_valid;
          Alcotest.test_case "bounds" `Quick bounds;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick benchmark_json;
          Alcotest.test_case "result line" `Quick result_line_roundtrip;
        ] );
    ]
