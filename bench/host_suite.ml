(* Host-backend benchmark (Bechamel): sequential reference vs the fused
   multicore kernel vs the parallel-library composition, swept across
   matrix shapes x domain counts.  Unlike bench/main.exe these are
   *real* wall-clock execution times — the host backend is the one
   engine that does not simulate.

   Two shapes stress the per-domain accumulators differently:
   - the tall shape (many rows, 1k columns) is the bandwidth-bound
     regime where each domain's full-width accumulator is cache-cheap;
   - the wide shape (tens to hundreds of thousands of columns) is where
     the accumulators and their tree merge outgrow the L2.

   Usage:
     dune exec bench/host_suite.exe            # full shapes (~1M+ nnz)
     dune exec bench/host_suite.exe -- --small # CI-sized quick run

   Emits BENCH_host.json in the working directory, including the full
   domain-count scaling curve per shape; the recommended domain count
   is the argmax of measured throughput, not a hardware heuristic. *)

open Bechamel
open Toolkit
open Matrix

type case = {
  id : string;
  shape : string;  (* "tall" | "wide" *)
  domains : int;
  variant : string;  (* "sequential", "dense-acc", "library" *)
  run : unit -> Vec.t;
}

type shape_data = {
  sname : string;
  suffix : string;  (* appended to case ids; "" for the tall shape *)
  x : Csr.t;
  y : Vec.t;
  v : Vec.t;
  z : Vec.t;
}

let make_shape ~sname ~suffix ~rows ~cols ~density ~seed =
  let rng = Rng.create seed in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density in
  let y = Gen.vector rng cols in
  let v = Gen.vector rng rows in
  let z = Gen.vector rng cols in
  { sname; suffix; x; y; v; z }

let pattern_args sd run =
  run ~alpha:2.0 sd.x ?v:(Some sd.v) sd.y ?beta:(Some 0.5) ?z:(Some sd.z) ()

let run_host sd ~pool =
  Fusion.Host_fused.pattern_sparse ~pool ~alpha:2.0 sd.x ~v:sd.v sd.y ~beta:0.5
    ~z:sd.z ()

let shape_cases sd pools =
  let sfx = sd.suffix in
  let case ~id ~domains ~variant run =
    { id; shape = sd.sname; domains; variant; run }
  in
  let seq =
    case
      ~id:("seq:blas-pattern" ^ sfx)
      ~domains:1 ~variant:"sequential"
      (fun () -> pattern_args sd Blas.pattern_sparse)
  in
  let per_pool (d, pool) =
    [
      case
        ~id:(Printf.sprintf "host-fused:d=%d%s" d sfx)
        ~domains:d
        ~variant:(Fusion.Host_fused.variant_name Fusion.Host_fused.Dense_acc)
        (fun () -> run_host sd ~pool);
      case
        ~id:(Printf.sprintf "host-library:d=%d%s" d sfx)
        ~domains:d ~variant:"library"
        (fun () -> pattern_args sd (Blas.par_pattern_sparse ~pool));
    ]
  in
  seq :: List.concat_map per_pool pools

let build_cases ~small =
  let tall =
    make_shape ~sname:"tall" ~suffix:""
      ~rows:(if small then 20_000 else 200_000)
      ~cols:1024 ~density:0.005 ~seed:20250805
  in
  let wide =
    make_shape ~sname:"wide" ~suffix:"@wide"
      ~rows:(if small then 4_000 else 8_000)
      ~cols:(if small then 65_536 else 262_144)
      ~density:0.001 ~seed:20250806
  in
  let domain_counts =
    List.sort_uniq compare [ 1; 2; 4; Par.Pool.default_size () ]
  in
  let pools =
    List.map (fun d -> (d, Par.Pool.create ~size:d ())) domain_counts
  in
  let cases = shape_cases tall pools @ shape_cases wide pools in
  ([ tall; wide ], domain_counts, cases)

let measure_case case =
  let test =
    Test.make ~name:case.id (Staged.stage (fun () -> ignore (case.run ())))
  in
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
  match !estimate with
  | Some ns -> ns /. 1e6 (* ms per run *)
  | None -> Float.nan

(* Re-measure the fused kernel at 4 domains on the tall shape with
   tracing (and a Host_stats sink) turned on: the delta against the
   normal measurement bounds what the observability layer costs when it
   is actually recording — and, since every number above ran with the
   instrumentation compiled in but off, the off-state cost is already
   priced into the headline results. *)
let measure_tracing_overhead measured =
  match List.find_opt (fun (c, _) -> c.id = "host-fused:d=4") measured with
  | None -> None
  | Some (case, off_ms) ->
      Kf_obs.Trace.enable ();
      let stats = Kf_obs.Host_stats.create ~domains:case.domains in
      let on_ms =
        Fun.protect
          ~finally:(fun () ->
            Kf_obs.Trace.disable ();
            Kf_obs.Trace.clear ())
          (fun () ->
            Kf_obs.Host_stats.with_sink stats (fun () -> measure_case case))
      in
      Some (case, off_ms, on_ms)

let () =
  let small = Array.exists (( = ) "--small") Sys.argv in
  let shapes, domain_counts, cases = build_cases ~small in
  List.iter
    (fun sd ->
      Printf.printf "host backend suite (%s): %d x %d CSR, %d nnz\n%!"
        sd.sname sd.x.Csr.rows sd.x.Csr.cols (Csr.nnz sd.x))
    shapes;
  let measured =
    List.map
      (fun case ->
        let ms = measure_case case in
        Printf.printf "  %-34s %10.3f ms/run\n%!" case.id ms;
        (case, ms))
      cases
  in
  (* per-shape sequential baselines *)
  let seq_ms_of shape =
    match
      List.find_opt
        (fun (c, _) -> c.shape = shape && c.variant = "sequential")
        measured
    with
    | Some (_, ms) -> ms
    | None -> Float.nan
  in
  let tall_seq = seq_ms_of "tall" in
  (* the measured scaling curve of the auto-dispatched fused kernel *)
  let scaling shape =
    List.filter_map
      (fun (c, ms) ->
        if c.shape = shape && String.starts_with ~prefix:"host-fused" c.id
        then Some (c, ms)
        else None)
      measured
  in
  (* argmax of measured throughput on the tall (primary) shape; ties go
     to the smaller pool.  NaNs lose. *)
  let recommended_domains =
    List.fold_left
      (fun (best_d, best_ms) (c, ms) ->
        if Float.is_nan ms then (best_d, best_ms)
        else if Float.is_nan best_ms || ms < best_ms then (c.domains, ms)
        else (best_d, best_ms))
      (1, Float.nan) (scaling "tall")
    |> fst
  in
  let tracing = measure_tracing_overhead measured in
  (match tracing with
  | Some (case, off_ms, on_ms) ->
      Printf.printf "  tracing overhead on %s: %.3f -> %.3f ms (%+.2f%%)\n%!"
        case.id off_ms on_ms
        (100.0 *. ((on_ms /. off_ms) -. 1.0))
  | None -> ());
  Printf.printf "recommended domains (measured argmax): %d\n%!"
    recommended_domains;
  let scaling_json shape =
    let seq = seq_ms_of shape in
    Kf_obs.Json.List
      (List.map
         (fun (c, ms) ->
           Kf_obs.Json.Obj
             [
               ("domains", Kf_obs.Json.Int c.domains);
               ("variant", Kf_obs.Json.Str c.variant);
               ("ms", Kf_obs.Json.Float ms);
               ("speedup_vs_sequential", Kf_obs.Json.Float (seq /. ms));
             ])
         (scaling shape))
  in
  let meta =
    Kf_obs.Json.Obj
      [
        ("ocaml_version", Kf_obs.Json.Str Sys.ocaml_version);
        ("small", Kf_obs.Json.Bool small);
        ( "domain_counts",
          Kf_obs.Json.List
            (List.map (fun d -> Kf_obs.Json.Int d) domain_counts) );
        ("scaling_tall", scaling_json "tall");
        ("scaling_wide", scaling_json "wide");
        ( "tracing_overhead",
          match tracing with
          | None -> Kf_obs.Json.Null
          | Some (case, off_ms, on_ms) ->
              Kf_obs.Json.Obj
                [
                  ("case", Kf_obs.Json.Str case.id);
                  ("off_ms", Kf_obs.Json.Float off_ms);
                  ("on_ms", Kf_obs.Json.Float on_ms);
                  ( "overhead_pct",
                    Kf_obs.Json.Float (100.0 *. ((on_ms /. off_ms) -. 1.0)) );
                ] );
      ]
  in
  let result_json (case, ms) =
    let seq = seq_ms_of case.shape in
    Kf_obs.Json.Obj
      [
        ("name", Kf_obs.Json.Str case.id);
        ("shape", Kf_obs.Json.Str case.shape);
        ("domains", Kf_obs.Json.Int case.domains);
        ("variant", Kf_obs.Json.Str case.variant);
        ("ms", Kf_obs.Json.Float ms);
        ("speedup_vs_sequential", Kf_obs.Json.Float (seq /. ms));
      ]
  in
  let tall = List.hd shapes in
  let doc =
    Kf_obs.Json.Obj
      [
        ("meta", meta);
        (* top-level matrix/sequential_ms describe the tall (primary)
           shape — the calibration inputs Kf_plan.Cost refits from. *)
        ( "matrix",
          Kf_obs.Json.Obj
            [
              ("rows", Kf_obs.Json.Int tall.x.Csr.rows);
              ("cols", Kf_obs.Json.Int tall.x.Csr.cols);
              ("nnz", Kf_obs.Json.Int (Csr.nnz tall.x));
            ] );
        ("recommended_domains", Kf_obs.Json.Int recommended_domains);
        ("sequential_ms", Kf_obs.Json.Float tall_seq);
        ("results", Kf_obs.Json.List (List.map result_json measured));
      ]
  in
  let oc = open_out "BENCH_host.json" in
  Kf_obs.Json.to_channel oc doc;
  close_out oc;
  print_endline "wrote BENCH_host.json"
