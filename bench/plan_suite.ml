(* Plan-compiler benchmark (Bechamel): the unfused reference
   interpreter ([Sysml.Script.eval], one executor call per operator) vs
   compiled plan execution ([Kf_plan.Compiler]) on the three studied
   DML scripts, across all three engines.  The [interp_*] fields time
   that reference, so they compare fused against unfused work.  Wall
   times are real (the whole point for [host]; for the simulated engines
   they measure the interpreter/compiler machinery itself), and the
   simulated device time + fused-launch counts from single runs show
   what the plan changed about the issued work.

   Usage:
     dune exec bench/plan_suite.exe            # default shape
     dune exec bench/plan_suite.exe -- --small # CI-sized quick run

   Emits BENCH_plan.json in the working directory. *)

open Bechamel
open Toolkit
open Matrix

let device = Gpu_sim.Device.gtx_titan

type script_case = {
  s_name : string;
  program : Sysml.Script.stmt list;
  positional : Sysml.Script.value list;
}

let build_scripts ~small =
  let rows = if small then 5_000 else 50_000 in
  let cols = 512 in
  let density = 0.01 in
  let rng = Rng.create 20260805 in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density in
  let input = Fusion.Executor.Sparse x in
  let truth = Gen.vector rng cols in
  let targets = Blas.csrmv x truth in
  let m = Sysml.Script.Matrix input in
  let y = Sysml.Script.Vector targets in
  ( [
      {
        s_name = "linreg-cg";
        program = Sysml.Dml.parse Sysml.Dml.listing1;
        positional = [ m; y ];
      };
      {
        s_name = "glm-ridge-cg";
        program = Sysml.Dml.parse Sysml.Dml.glm_listing;
        positional = [ m; y; Sysml.Script.Num 0.1 ];
      };
      {
        s_name = "logreg-gd";
        program = Sysml.Dml.parse Sysml.Dml.logreg_listing;
        positional = [ m; y; Sysml.Script.Num 1e-6 ];
      };
    ],
    (rows, cols, Csr.nnz x) )

let measure_ms name f =
  let test = Test.make ~name (Staged.stage (fun () -> ignore (f ()))) in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
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
  match !estimate with Some ns -> ns /. 1e6 | None -> Float.nan

let engines =
  (* dist excluded: worker processes dwarf the per-script timings *)
  List.filter_map
    (fun e ->
      match e with
      | Fusion.Executor.Dist -> None
      | e -> Some (Fusion.Executor.engine_to_string e, e))
    Fusion.Executor.engines

let () =
  let small = Array.exists (( = ) "--small") Sys.argv in
  let scripts, (rows, cols, nnz) = build_scripts ~small in
  Printf.printf "plan suite: %d x %d CSR, %d nnz\n%!" rows cols nnz;
  let results =
    List.concat_map
      (fun sc ->
        List.map
          (fun (engine_name, engine) ->
            let interp () =
              Sysml.Script.eval ~engine device ~inputs:[]
                ~positional:sc.positional sc.program
            in
            let compile () =
              Kf_plan.Compiler.compile ~engine device ~inputs:[]
                ~positional:sc.positional sc.program
            in
            let plan = compile () in
            let planned () = Kf_plan.Compiler.execute plan in
            let ri = interp () in
            let rp = planned () in
            (* the two paths must agree before their times mean anything *)
            let wi = Sysml.Script.lookup_vector ri "w" in
            let wp = Sysml.Script.lookup_vector rp "w" in
            if not (Vec.approx_equal ~tol:1e-9 wi wp) then
              failwith
                (Printf.sprintf "%s/%s: planned result diverges" sc.s_name
                   engine_name);
            let id = Printf.sprintf "%s:%s" sc.s_name engine_name in
            let interp_ms = measure_ms (id ^ ":interp") interp in
            let compile_ms = measure_ms (id ^ ":compile") compile in
            let planned_ms = measure_ms (id ^ ":planned") planned in
            Printf.printf
              "  %-24s interp %8.3f ms  planned %8.3f ms  compile %6.3f ms\n%!"
              id interp_ms planned_ms compile_ms;
            Kf_obs.Json.Obj
              [
                ("script", Kf_obs.Json.Str sc.s_name);
                ("engine", Kf_obs.Json.Str engine_name);
                ("interp_wall_ms", Kf_obs.Json.Float interp_ms);
                ("planned_wall_ms", Kf_obs.Json.Float planned_ms);
                ("compile_wall_ms", Kf_obs.Json.Float compile_ms);
                ("interp_gpu_ms", Kf_obs.Json.Float ri.Sysml.Script.gpu_ms);
                ("planned_gpu_ms", Kf_obs.Json.Float rp.Sysml.Script.gpu_ms);
                ( "interp_fused_launches",
                  Kf_obs.Json.Int ri.Sysml.Script.fused_launches );
                ( "planned_fused_launches",
                  Kf_obs.Json.Int rp.Sysml.Script.fused_launches );
                ( "chosen",
                  Kf_obs.Json.List
                    (List.map
                       (fun i -> Kf_obs.Json.Str (Fusion.Pattern.name i))
                       (Kf_plan.Compiler.chosen_instantiations plan)) );
              ])
          engines)
      scripts
  in
  let doc =
    Kf_obs.Json.Obj
      [
        ( "meta",
          Kf_obs.Json.Obj
            [
              ("ocaml_version", Kf_obs.Json.Str Sys.ocaml_version);
              ("small", Kf_obs.Json.Bool small);
              ("recommended_domains", Kf_obs.Json.Int (Par.Pool.default_size ()));
            ] );
        ( "matrix",
          Kf_obs.Json.Obj
            [
              ("rows", Kf_obs.Json.Int rows);
              ("cols", Kf_obs.Json.Int cols);
              ("nnz", Kf_obs.Json.Int nnz);
            ] );
        ("results", Kf_obs.Json.List results);
      ]
  in
  let oc = open_out "BENCH_plan.json" in
  Kf_obs.Json.to_channel oc doc;
  close_out oc;
  print_endline "wrote BENCH_plan.json"
