(* Bench regression gate: compare fresh BENCH_*.json artefacts against
   committed baselines and fail on a significant slowdown.

   Usage:
     dune exec bench/regress.exe -- --baseline DIR --fresh DIR
                                    [--threshold F] [--inject F]

   For every suite file present in both directories the gate extracts
   scalar metrics keyed by the cell's configuration:

     BENCH_host.json    results[].ms                      (lower better)
     BENCH_plan.json    results[].interp_wall_ms and
                        results[].planned_wall_ms         (lower better)
     BENCH_serve.json   cells[].throughput_rps            (higher better)
                        cells[].p99_us                    (lower better,
                                                           2x threshold)
                        meta.adaptive_vs_best_fixed[]
                          .ratio                          (higher better,
                                                           2x threshold)
     BENCH_dist.json    results[].allreduce_bytes and
                        results[].recv_bytes_per_op       (lower better)
     BENCH_graph.json   results[].{fused,unfused}_host_ms and
                        results[].{fused,unfused}_sim_ms  (lower better)

   A metric regresses when it moves past the noise threshold (default
   15%, doubled for tail latency — p99 of a quarter-second cell is the
   noisiest number here) in the bad direction.  [--inject F] worsens
   every fresh metric by the factor F before comparing — the gate's
   self-test: `--inject 0.2` against identical files must fail.

   Exit status: 0 clean, 1 regression(s), 2 usage or parse errors. *)

let fail_usage msg =
  prerr_endline ("regress: " ^ msg);
  prerr_endline
    "usage: regress --baseline DIR --fresh DIR [--threshold F] [--inject F]";
  exit 2

(* ---- metric extraction ------------------------------------------------ *)

type direction = Lower_better | Higher_better

type metric = {
  key : string;  (** suite + cell configuration + field *)
  value : float;
  dir : direction;
  scale : float;  (** threshold multiplier (tail latency is noisier) *)
}

let member = Kf_obs.Json.member

let num j k =
  match member k j with
  | Some (Kf_obs.Json.Int i) -> Some (float_of_int i)
  | Some (Kf_obs.Json.Float f) when Float.is_finite f -> Some f
  | _ -> None

let str j k =
  match member k j with
  | Some (Kf_obs.Json.Str s) -> Some s
  | Some (Kf_obs.Json.Int i) -> Some (string_of_int i)
  | _ -> None

let items j k =
  match member k j with Some (Kf_obs.Json.List l) -> l | _ -> []

let req what = function
  | Some v -> v
  | None -> fail_usage (Printf.sprintf "missing %s" what)

(* Key parts are best-effort: a field a suite doesn't emit for some
   cells becomes "-" rather than an error, keeping keys stable as long
   as the remaining parts disambiguate. *)
let part_of j k = Option.value (str j k) ~default:"-"

let host_metrics doc =
  List.filter_map
    (fun r ->
      let part k = part_of r k in
      let key =
        Printf.sprintf "host:%s:%s:d%s:%s" (part "name") (part "shape")
          (part "domains") (part "variant")
      in
      Option.map
        (fun ms -> { key; value = ms; dir = Lower_better; scale = 1.0 })
        (num r "ms"))
    (items doc "results")

let plan_metrics doc =
  List.concat_map
    (fun r ->
      let part k = part_of r k in
      let base = Printf.sprintf "plan:%s:%s" (part "script") (part "engine") in
      List.filter_map
        (fun field ->
          Option.map
            (fun v ->
              {
                key = base ^ ":" ^ field;
                value = v;
                dir = Lower_better;
                scale = 1.0;
              })
            (num r field))
        [ "interp_wall_ms"; "planned_wall_ms" ])
    (items doc "results")

let serve_metrics doc =
  let cells =
    List.concat_map
      (fun c ->
        let part k = part_of c k in
        let base =
          Printf.sprintf "serve:p%s:w%s:c%s" (part "pool") (part "window_us")
            (part "concurrency")
        in
        List.filter_map Fun.id
          [
            Option.map
              (fun v ->
                {
                  key = base ^ ":throughput_rps";
                  value = v;
                  dir = Higher_better;
                  scale = 1.0;
                })
              (num c "throughput_rps");
            Option.map
              (fun v ->
                {
                  key = base ^ ":p99_us";
                  value = v;
                  dir = Lower_better;
                  scale = 2.0;
                })
              (num c "p99_us");
          ])
      (items doc "cells")
  in
  (* the tentpole ratio: adaptive window throughput over the best fixed
     window, per (pool, concurrency) — the controller must stay within
     noise of a window someone hand-tuned.  Ratios of two noisy
     throughputs are twice as noisy, hence the p99-style scale. *)
  let ratios =
    match member "meta" doc with
    | Some meta ->
        List.filter_map
          (fun r ->
            let part k = part_of r k in
            Option.map
              (fun v ->
                {
                  key =
                    Printf.sprintf "serve:adaptive_ratio:p%s:c%s" (part "pool")
                      (part "concurrency");
                  value = v;
                  dir = Higher_better;
                  scale = 2.0;
                })
              (num r "ratio"))
          (items meta "adaptive_vs_best_fixed")
    | None -> []
  in
  cells @ ratios

(* Multi-process wall clock is scheduler noise (worker placement swings
   it by integer factors on a shared box), so the dist gate watches the
   deterministic signal instead: the wire-volume accounting.  A layout
   or codec change that balloons the gather shows up here exactly; a
   busy machine does not. *)
let dist_metrics doc =
  List.concat_map
    (fun r ->
      let part k = part_of r k in
      let base =
        Printf.sprintf "dist:%s:w%s:%s" (part "shape") (part "workers")
          (part "mode")
      in
      List.filter_map
        (fun field ->
          Option.map
            (fun v ->
              {
                key = base ^ ":" ^ field;
                value = v;
                dir = Lower_better;
                scale = 1.0;
              })
            (num r field))
        [ "allreduce_bytes"; "recv_bytes_per_op" ])
    (items doc "results")

(* Host wall times gate the real kernels; the simulated ms are
   deterministic cost-model outputs, so any drift there is a cost-model
   change, not noise — still gated at the same threshold. *)
let graph_metrics doc =
  List.concat_map
    (fun r ->
      let part k = part_of r k in
      let base =
        Printf.sprintf "graph:%s:%s:d%s" (part "shape") (part "semiring")
          (part "dim")
      in
      List.filter_map
        (fun field ->
          Option.map
            (fun v ->
              {
                key = base ^ ":" ^ field;
                value = v;
                dir = Lower_better;
                scale = 1.0;
              })
            (num r field))
        [ "fused_host_ms"; "unfused_host_ms"; "fused_sim_ms"; "unfused_sim_ms" ])
    (items doc "results")

let suites =
  [
    ("BENCH_host.json", host_metrics);
    ("BENCH_plan.json", plan_metrics);
    ("BENCH_serve.json", serve_metrics);
    ("BENCH_dist.json", dist_metrics);
    ("BENCH_graph.json", graph_metrics);
  ]

let load_metrics dir (file, extract) =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Kf_obs.Json.parse text with
    | doc -> Some (extract doc)
    | exception Kf_obs.Json.Parse_error msg ->
        fail_usage (Printf.sprintf "%s: %s" path msg)

(* ---- comparison ------------------------------------------------------- *)

(* Below these magnitudes the metric is measurement noise, not signal —
   a 0.02 ms cell regressing 20% is one scheduler hiccup. *)
let starts_with p key =
  String.length key >= String.length p && String.sub key 0 (String.length p) = p

let floor_for key =
  if starts_with "host:" key then 0.05 (* ms *)
  else if starts_with "graph:" key then 0.05 (* ms *)
  else if starts_with "plan:" key then 0.5
  else if starts_with "dist:" key then 1024.0 (* bytes *)
  else if starts_with "serve:adaptive_ratio:" key then
    0.01 (* dimensionless ratio near 1.0 — the default rps floor would
            skip it entirely *)
  else 1.0 (* rps / us *)

type verdict = Ok_same | Improved | Regressed | Skipped

let compare_metric ~threshold ~inject base fresh =
  let fresh_v =
    match (inject, fresh.dir) with
    | 0.0, _ -> fresh.value
    | f, Lower_better -> fresh.value *. (1.0 +. f)
    | f, Higher_better -> fresh.value /. (1.0 +. f)
  in
  let floor = floor_for base.key in
  if base.value < floor && fresh_v < floor then (Skipped, fresh_v)
  else if base.value <= 0.0 then (Skipped, fresh_v)
  else
    let t = threshold *. base.scale in
    let ratio = fresh_v /. base.value in
    let v =
      match base.dir with
      | Lower_better ->
          if ratio > 1.0 +. t then Regressed
          else if ratio < 1.0 -. t then Improved
          else Ok_same
      | Higher_better ->
          if ratio < 1.0 -. t then Regressed
          else if ratio > 1.0 +. t then Improved
          else Ok_same
    in
    (v, fresh_v)

let () =
  let baseline = ref None and fresh = ref None in
  let threshold = ref 0.15 and inject = ref 0.0 in
  let rec parse_args = function
    | [] -> ()
    | "--baseline" :: d :: rest ->
        baseline := Some d;
        parse_args rest
    | "--fresh" :: d :: rest ->
        fresh := Some d;
        parse_args rest
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> threshold := f
        | _ -> fail_usage "--threshold expects a positive number");
        parse_args rest
    | "--inject" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> inject := f
        | _ -> fail_usage "--inject expects a non-negative number");
        parse_args rest
    | arg :: _ -> fail_usage ("unknown argument " ^ arg)
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline = req "--baseline" !baseline in
  let fresh_dir = req "--fresh" !fresh in
  let regressions = ref 0 and compared = ref 0 and suites_seen = ref 0 in
  List.iter
    (fun suite ->
      let file = fst suite in
      match (load_metrics baseline suite, load_metrics fresh_dir suite) with
      | None, _ | _, None ->
          Printf.printf "-- %s: missing on one side, skipped\n" file
      | Some base_ms, Some fresh_ms ->
          incr suites_seen;
          Printf.printf "-- %s: %d baseline metric(s)\n" file
            (List.length base_ms);
          List.iter
            (fun b ->
              match List.find_opt (fun f -> f.key = b.key) fresh_ms with
              | None -> Printf.printf "   %-52s missing in fresh\n" b.key
              | Some f ->
                  incr compared;
                  let verdict, fv =
                    compare_metric ~threshold:!threshold ~inject:!inject b f
                  in
                  let tag =
                    match verdict with
                    | Ok_same -> "ok"
                    | Improved -> "improved"
                    | Skipped -> "below noise floor"
                    | Regressed ->
                        incr regressions;
                        "REGRESSED"
                  in
                  let arrow =
                    match b.dir with
                    | Lower_better -> "(lower better)"
                    | Higher_better -> "(higher better)"
                  in
                  Printf.printf "   %-52s %12.3f -> %12.3f  %+6.1f%% %s %s\n"
                    b.key b.value fv
                    ((fv -. b.value) /. b.value *. 100.0)
                    arrow tag)
            base_ms)
    suites;
  if !suites_seen = 0 then
    fail_usage
      (Printf.sprintf "no BENCH_*.json present in both %s and %s" baseline
         fresh_dir);
  Printf.printf "%d metric(s) compared, %d regression(s)%s\n" !compared
    !regressions
    (if !inject > 0.0 then
       Printf.sprintf " (with %.0f%% injected slowdown)" (!inject *. 100.0)
     else "");
  exit (if !regressions > 0 then 1 else 0)
