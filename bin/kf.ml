(* kf — command-line front end to the kernel-fusion library.

   Subcommands:
     kf run     run a pattern instantiation on synthetic data, both engines
     kf tune    show the analytical launch plan for a matrix shape
     kf codegen print the generated CUDA for a dense plan
     kf train   fit an ML algorithm and report timings + pattern trace
     kf serve   micro-batched scoring service driven by synthetic clients
     kf top     live terminal view of a serve --metrics-port endpoint
     kf script  run a DML script through the fusion plan compiler *)

open Cmdliner
open Matrix

let device = Gpu_sim.Device.gtx_titan

(* -v: evaluating the flag sets up logging *)
let setup_logs =
  let setup verbose =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))
  in
  Term.(
    const setup
    $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging."))

(* ---- shared arguments ---- *)

(* A flag overrides its variable. *)
let flag_or_env flag var =
  if Option.is_some flag then flag else Kf_obs.Env.get var

let rows_arg =
  Arg.(value & opt int 100_000 & info [ "m"; "rows" ] ~doc:"Matrix rows.")

let cols_arg =
  Arg.(value & opt int 1024 & info [ "n"; "cols" ] ~doc:"Matrix columns.")

let density_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "d"; "density" ] ~doc:"Sparse density (ignored for dense).")

let dense_arg =
  Arg.(value & flag & info [ "dense" ] ~doc:"Use a dense matrix.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")

(* The synthetic problem every data-generating subcommand shares. *)
type problem = {
  dense : bool;
  rows : int;
  cols : int;
  density : float;
  seed : int;
}

let problem_term =
  Term.(
    const (fun dense rows cols density seed ->
        { dense; rows; cols; density; seed })
    $ dense_arg $ rows_arg $ cols_arg $ density_arg $ seed_arg)

let make_input p =
  let rng = Rng.create p.seed in
  if p.dense then Fusion.Executor.Dense (Gen.dense rng ~rows:p.rows ~cols:p.cols)
  else
    Fusion.Executor.Sparse
      (Gen.sparse_uniform rng ~rows:p.rows ~cols:p.cols ~density:p.density)

(* The input, and the targets a planted weight vector gives it: what
   [kf train] fits and [kf script] binds to $1 and $2. *)
let input_and_targets p =
  let input = make_input p in
  let truth = Gen.vector (Rng.create (p.seed + 2)) p.cols in
  let targets =
    match input with
    | Fusion.Executor.Sparse x -> Blas.csrmv x truth
    | Fusion.Executor.Dense x -> Blas.gemv x truth
  in
  (input, targets)

let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok _ -> Error (`Msg "must be >= 1")
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let domains_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "domains" ]
        ~doc:
          "Domain count for the $(b,host) engine (overrides the \
           $(b,KF_DOMAINS) environment variable; default: the runtime's \
           recommended count).")

(* The shared pool reads KF_DOMAINS lazily on first use, so setting the
   variable before any host-engine work takes effect process-wide.  A
   count beyond the recommended domain count (oversubscription: domains
   time-share cores and their accumulators lose their cache affinity)
   earns a warning but still runs, since CI boxes under-report cores. *)
let apply_domains domains =
  let n = match domains with Some n -> n | None -> Par.Pool.default_size () in
  let rec_n = Domain.recommended_domain_count () in
  if n > rec_n then
    Printf.eprintf
      "kf: warning: %d domains requested but the runtime recommends at most \
       %d on this machine; extra domains will time-share cores and usually \
       slow the host engine down\n\
       %!"
      n rec_n;
  Option.iter (fun n -> Unix.putenv "KF_DOMAINS" (string_of_int n)) domains

let workers_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "workers" ]
        ~doc:
          "Worker-process count for the $(b,dist) engine (overrides the \
           $(b,KF_WORKERS) environment variable; default: the runtime's \
           recommended domain count).")

(* ---- observability ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (loadable unmodified in \
           Perfetto or chrome://tracing) when the command finishes.  The \
           $(b,KF_TRACE) environment variable supplies the path when the \
           flag is absent.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a span profile tree, the process counters, and — for \
           host-engine work — per-domain busy/idle/rows/nnz stats with \
           the load-imbalance ratio, after the command finishes.")

type obs = { trace : string option; profile : bool }

let obs_term =
  Term.(const (fun trace profile -> { trace; profile }) $ trace_arg $ profile_arg)

let print_instantiations trace =
  print_endline "pattern instantiations:";
  List.iter
    (fun (d, n) -> Printf.printf "  %-28s x%d\n" d.Fusion.Pattern_family.label n)
    (Fusion.Pattern.Trace.entries trace)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the command's report as JSON on stdout.")

(* Shared observability wrapper: tracing turns on when a trace file or
   --profile asks for it, and so does the run's one [Host_stats] sink,
   which every host-engine op records into: --profile prints it, and
   the trace's [host.*] counter tracks sample it.  The artefacts are
   emitted even when the wrapped command raises, so a failing run
   still leaves its trace behind.  [sample] (else KF_TRACE_SAMPLE,
   with KF_TRACE_SEED) installs the deterministic per-request trace
   sampler for every subcommand. *)
let with_obs ?sample { trace; profile } f =
  Kf_obs.Trace.sample_of_env ?rate:sample ();
  let trace = flag_or_env trace Kf_obs.Trace.file_var in
  if trace = None && not profile then f ()
  else begin
    Kf_obs.Trace.enable ();
    let stats = Kf_obs.Host_stats.create ~domains:(Par.Pool.default_size ()) in
    let emit () =
      (match trace with
      | Some path ->
          Kf_obs.Chrome.write_file path;
          Printf.eprintf "trace: %d event(s) written to %s\n%!"
            (Kf_obs.Trace.event_count ()) path
      | None -> ());
      if profile then begin
        Format.printf "@.-- span profile --@.%a@." Kf_obs.Profile.pp_current
          ();
        Format.printf "-- counters --@.";
        List.iter
          (fun (name, v) -> Format.printf "  %-24s %d@." name v)
          (Kf_obs.Counter.all ());
        if stats.Kf_obs.Host_stats.jobs > 0 then
          Format.printf "-- host engine --@.%a@." Kf_obs.Host_stats.pp stats
      end
    in
    Fun.protect ~finally:emit (fun () -> Kf_obs.Host_stats.with_sink stats f)
  end

(* one spelling authority for engines: [--engine] and [KF_ENGINE] both
   parse through {!Fusion.Executor.engine_of_string} *)
let engine_conv =
  let parse s =
    match Fusion.Executor.engine_of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid engine %S, expected one of %s" s
                (String.concat ", "
                   (List.map Fusion.Executor.engine_to_string
                      Fusion.Executor.engines))))
  in
  let print ppf e =
    Format.pp_print_string ppf (Fusion.Executor.engine_to_string e)
  in
  Arg.conv (parse, print)

let engine_arg =
  let flag =
    Arg.(
      value
      & opt (some engine_conv) None
      & info [ "e"; "engine" ]
          ~doc:
            "Execution engine: $(b,fused) (simulated fused kernels), \
             $(b,library) (simulated cuSPARSE/cuBLAS composition), \
             $(b,host) (real multicore execution on OCaml domains; \
             timings are wall-clock), or $(b,dist) (sharded execution \
             across $(b,--workers) worker processes; timings are \
             wall-clock).  Default: $(b,KF_ENGINE), else $(b,fused).")
  in
  let resolve flag =
    Option.value
      (flag_or_env flag Fusion.Executor.engine_var)
      ~default:Fusion.Executor.Fused
  in
  Term.(const resolve $ flag)

(* Where the work runs.  Like the pool, the shared cluster reads
   KF_WORKERS lazily on first use, so evaluating the group sets both
   counts, once, before the command body runs. *)
type exec = { engine : Fusion.Executor.engine }

let exec_term =
  let apply engine domains workers =
    apply_domains domains;
    Option.iter (fun n -> Unix.putenv "KF_WORKERS" (string_of_int n)) workers;
    { engine }
  in
  Term.(const apply $ engine_arg $ domains_arg $ workers_arg)

(* ---- kf run ---- *)

let instantiation_arg =
  let all = [ ("xty", `Xty); ("xtxy", `Xtxy); ("weighted", `W); ("full", `Full) ] in
  Arg.(
    value
    & opt (enum all) `Xtxy
    & info [ "p"; "pattern" ]
        ~doc:"Pattern instantiation: $(b,xty), $(b,xtxy), $(b,weighted) \
              (X^T(v.(Xy))), or $(b,full).")

let run_cmd =
  let run () p inst domains host obs =
    apply_domains domains;
    with_obs obs @@ fun () ->
    let input = make_input p in
    let rng = Rng.create (p.seed + 1) in
    let y = Gen.vector rng p.cols in
    let v = Gen.vector rng p.rows in
    let z = Gen.vector rng p.cols in
    let exec engine =
      match inst with
      | `Xty -> Fusion.Executor.xt_y ~engine device input (Gen.vector (Rng.create p.seed) p.rows) ~alpha:1.0
      | `Xtxy -> Fusion.Executor.pattern ~engine device input ~y ~alpha:1.0 ()
      | `W -> Fusion.Executor.pattern ~engine device input ~y ~v ~alpha:1.0 ()
      | `Full ->
          Fusion.Executor.pattern ~engine device input ~y ~v
            ~beta_z:(0.5, z) ~alpha:2.0 ()
    in
    let f = exec Fusion.Executor.Fused in
    let l = exec Fusion.Executor.Library in
    Printf.printf "input: %d x %d %s\n" p.rows p.cols
      (if p.dense then "dense"
       else Printf.sprintf "sparse (density %g)" p.density);
    Printf.printf "fused engine:   %8.3f ms  (%s)\n" f.Fusion.Executor.time_ms
      f.Fusion.Executor.engine_used;
    Printf.printf "library engine: %8.3f ms  (%s)\n" l.Fusion.Executor.time_ms
      l.Fusion.Executor.engine_used;
    Printf.printf "speedup: %.2fx\n"
      (l.Fusion.Executor.time_ms /. f.Fusion.Executor.time_ms);
    Printf.printf "results agree to %g\n"
      (Vec.max_abs_diff f.Fusion.Executor.w l.Fusion.Executor.w);
    if host then begin
      let h = exec Fusion.Executor.Host in
      Printf.printf "host engine:    %8.3f ms wall-clock  (%s)\n"
        h.Fusion.Executor.time_ms h.Fusion.Executor.engine_used;
      Printf.printf "host agrees with fused to %g\n"
        (Vec.max_abs_diff h.Fusion.Executor.w f.Fusion.Executor.w)
    end;
    List.iter
      (fun r -> Format.printf "%a@." Gpu_sim.Sim.pp_report r)
      f.Fusion.Executor.reports
  in
  let host_flag =
    Arg.(
      value & flag
      & info [ "host" ]
          ~doc:
            "Also execute on the real multicore host backend and report \
             wall-clock time.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a pattern instantiation with the simulated engines (and \
          optionally the real host backend).")
    Term.(
      const run $ setup_logs $ problem_term $ instantiation_arg $ domains_arg
      $ host_flag $ obs_term)

(* ---- kf tune ---- *)

let dense_plan_json (p : Fusion.Tuning.dense_plan) =
  Kf_obs.Json.(
    Obj
      [
        ("kind", Str "dense");
        ("vs", Int p.dp_vs);
        ("bs", Int p.dp_bs);
        ("tl", Int p.dp_tl);
        ("coarsening", Int p.dp_coarsening);
        ("grid", Int p.dp_grid);
        ("registers", Int p.dp_regs);
        ("shared_bytes", Int p.dp_shared_bytes);
        ("padded_cols", Int p.dp_padded_cols);
      ])

let sparse_plan_json ~mean_row_nnz (p : Fusion.Tuning.sparse_plan) =
  Kf_obs.Json.(
    Obj
      [
        ("kind", Str "sparse");
        ("mean_row_nnz", Float mean_row_nnz);
        ("vs", Int p.sp_vs);
        ("bs", Int p.sp_bs);
        ("coarsening", Int p.sp_coarsening);
        ("grid", Int p.sp_grid);
        ("shared_bytes", Int p.sp_shared_bytes);
        ("registers", Int p.sp_regs);
        ("large_n", Bool p.sp_large_n);
      ])

let tune_cmd =
  let tune p json =
    if p.dense then begin
      let plan = Fusion.Tuning.dense_plan device ~rows:p.rows ~cols:p.cols in
      if json then Kf_obs.Json.to_channel stdout (dense_plan_json plan)
      else Format.printf "%a@." Fusion.Tuning.pp_dense_plan plan
    end
    else begin
      match make_input p with
      | Fusion.Executor.Sparse x ->
          let plan = Fusion.Tuning.sparse_plan device x in
          let mu = Csr.mean_row_nnz x in
          if json then
            Kf_obs.Json.to_channel stdout
              (sparse_plan_json ~mean_row_nnz:mu plan)
          else begin
            Format.printf "mu = %.2f nnz/row@." mu;
            Format.printf "%a@." Fusion.Tuning.pp_sparse_plan plan
          end
      | Fusion.Executor.Dense _ -> assert false
    end
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Show the analytical launch plan (Section 3.3).")
    Term.(const tune $ problem_term $ json_arg)

(* ---- kf codegen ---- *)

let tl_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tl" ] ~doc:"Thread load override (1-40); default: tuned.")

let codegen_cmd =
  let codegen rows cols tl =
    let plan =
      match tl with
      | None -> Fusion.Tuning.dense_plan device ~rows ~cols
      | Some tl -> (
          match Fusion.Tuning.dense_plan_with device ~rows ~cols ~tl with
          | Some p -> p
          | None ->
              Printf.eprintf
                "kf codegen: thread load %d cannot launch for a %d x %d \
                 matrix\n\
                 %!"
                tl rows cols;
              exit 2)
    in
    Format.printf "%a@.@." Fusion.Tuning.pp_dense_plan plan;
    print_string (Fusion.Codegen.cuda_source (Fusion.Codegen.specialize plan))
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Print the CUDA the dense code generator emits (Listing 2).")
    Term.(const codegen $ rows_arg $ cols_arg $ tl_arg)

(* ---- kf train ---- *)

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault-injection spec (DESIGN.md section 10), \
           e.g. $(b,launch:p=0.05:seed=7,nan:after=3).  Kinds: \
           $(b,launch), $(b,nan), $(b,inf), $(b,alloc), $(b,crash), \
           $(b,trunc); keys: $(b,p=), $(b,after=), $(b,every=), \
           $(b,times=), $(b,seed=), $(b,point=).  Overrides the \
           $(b,KF_FAULTS) environment variable.")

let apply_faults = function
  | None -> ()
  | Some spec -> (
      match Kf_resil.Fault.parse spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "kf: --faults: %s\n%!" msg;
          exit 2)

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a $(b,kf-ckpt/1) checkpoint of the solver state to \
           $(docv) every $(b,--every) outer iterations.  The \
           $(b,KF_CKPT) environment variable supplies the path when the \
           flag is absent.")

let every_arg =
  Arg.(
    value & opt int 5
    & info [ "every" ] ~docv:"K"
        ~doc:
          "Checkpoint cadence: every $(docv)-th outer iteration \
           (classes for $(b,multinomial)).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume training from a checkpoint written by an identical \
           $(b,kf train) invocation; the resumed run converges to the \
           bit-identical model (compare $(b,weights_checksum) in the \
           $(b,--json) output).")

let max_iterations_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-iterations" ] ~docv:"N"
        ~doc:
          "Cap the outer iteration count: CG iterations for $(b,lr), \
           Newton steps for $(b,glm)/$(b,logreg)/$(b,svm)/\
           $(b,multinomial), power iterations for $(b,hits).")

(* The registry is the single source of truth for what can be trained
   and served: no per-algorithm match anywhere in this file. *)
let algo_arg =
  let names = Kf_ml.Registry.names in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "lr"
    & info [ "a"; "algorithm" ]
        ~doc:
          (Printf.sprintf "One of %s."
             (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") names))))

(* Resume safety: a checkpoint only makes sense against the same
   synthetic problem, so every checkpoint carries the generator
   configuration and [--resume] refuses a mismatch before fitting. *)
let field_str = function
  | Kf_resil.Ckpt.Int i -> string_of_int i
  | Kf_resil.Ckpt.Float f -> Printf.sprintf "%g" f
  | Kf_resil.Ckpt.Str s -> s
  | Kf_resil.Ckpt.Floats v -> Printf.sprintf "<%d floats>" (Array.length v)
  | Kf_resil.Ckpt.Ints v -> Printf.sprintf "<%d ints>" (Array.length v)

let validate_resume_meta ~path ~meta =
  let ck = Kf_resil.Ckpt.read ~path in
  List.iter
    (fun (name, expected) ->
      match Kf_resil.Ckpt.find ck.Kf_resil.Ckpt.payload name with
      | Some stored when stored <> expected ->
          Printf.eprintf
            "kf train --resume: %s was written with %s=%s, but this \
             invocation has %s=%s\n\
             %!"
            path name (field_str stored) name (field_str expected);
          exit 2
      | _ -> ())
    meta

let save_model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-model" ] ~docv:"FILE"
        ~doc:
          "Write the trained model as a $(b,kf-ckpt/1) file ($(b,model.*) \
           fields plus the generator configuration); $(b,kf serve) loads \
           it.")

let train_cmd =
  let train p algo_name { engine } obs json faults checkpoint every resume
      max_iterations save_model =
    apply_faults faults;
    let (module A : Kf_ml.Algorithm.S) = Kf_ml.Registry.find algo_name in
    let checkpoint =
      Option.map
        (fun path -> (path, every))
        (flag_or_env checkpoint Kf_resil.Ckpt.path_var)
    in
    with_obs obs @@ fun () ->
    let ckpt_meta =
      [
        ("cfg.algo", Kf_resil.Ckpt.Str algo_name);
        ("cfg.rows", Kf_resil.Ckpt.Int p.rows);
        ("cfg.cols", Kf_resil.Ckpt.Int p.cols);
        ("cfg.density", Kf_resil.Ckpt.Float p.density);
        ("cfg.dense", Kf_resil.Ckpt.Int (if p.dense then 1 else 0));
        ("cfg.seed", Kf_resil.Ckpt.Int p.seed);
      ]
    in
    (match resume with
    | Some path -> validate_resume_meta ~path ~meta:ckpt_meta
    | None -> ());
    let input, raw = input_and_targets p in
    let time_label =
      match engine with
      | Fusion.Executor.Host -> "host wall-clock time"
      | Fusion.Executor.Dist -> "dist wall-clock time"
      | Fusion.Executor.Fused | Fusion.Executor.Library ->
          "simulated device time"
    in
    let cfg =
      { Kf_ml.Algorithm.engine; max_iterations; checkpoint; ckpt_meta; resume }
    in
    let r = A.train ~cfg { Kf_ml.Algorithm.device; input; raw; seed = p.seed } in
    let flat = Kf_ml.Algorithm.flat_weights r.weights in
    let checksum = Kf_resil.Ckpt.checksum_floats flat in
    (match save_model with
    | Some path ->
        Kf_resil.Ckpt.write ~path ~algorithm:A.name ~iteration:0
          (Kf_ml.Algorithm.weights_payload r.weights @ ckpt_meta);
        Printf.eprintf "model written to %s\n%!" path
    | None -> ());
    if json then
      Kf_obs.Json.to_channel stdout
        (Kf_obs.Json.Obj
           ([
              ("algorithm", Kf_obs.Json.Str A.display_name);
              ( "engine",
                Kf_obs.Json.Str (Fusion.Executor.engine_to_string engine) );
              ("time_ms", Kf_obs.Json.Float r.gpu_ms);
              ("resumed", Kf_obs.Json.Bool (resume <> None));
              ("weights_checksum", Kf_obs.Json.Str checksum);
            ]
           @ r.fields
           @ [
               ( "pattern_instantiations",
                 Kf_obs.Json.Obj
                   (List.map
                      (fun (d, n) ->
                        (d.Fusion.Pattern_family.label, Kf_obs.Json.Int n))
                      (Fusion.Pattern.Trace.entries r.trace)) );
               ( "timeline",
                 Kf_obs.Json.List
                   (List.map Kf_ml.Session.iteration_json r.timeline) );
             ]))
    else begin
      Printf.printf "%s: %s\n" A.display_name r.label;
      if resume <> None then print_endline "resumed from checkpoint";
      Printf.printf "weights checksum: %s\n" checksum;
      Printf.printf "%s: %.2f ms\n" time_label r.gpu_ms;
      print_instantiations r.trace
    end
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Fit an ML algorithm on synthetic data.")
    Term.(
      const train $ problem_term $ algo_arg $ exec_term $ obs_term $ json_arg
      $ faults_arg $ checkpoint_arg $ every_arg $ resume_arg
      $ max_iterations_arg $ save_model_arg)

(* ---- kf serve ---- *)

let serve_cmd =
  let model_arg =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "model" ] ~docv:"[NAME=]FILE"
          ~doc:
            "Model file written by $(b,kf train --save-model) (a \
             $(b,kf-ckpt/1) checkpoint with $(b,model.*) fields).  \
             Repeatable: each occurrence registers one model under \
             $(b,NAME) (default: the file's basename), and clients \
             round-robin across all of them.")
  in
  (* the service's own defaults, which the help shows as absent= *)
  let d = Kf_serve.Service.default_config in
  let window_cap_arg =
    Arg.(
      value
      & opt int d.window_cap_us
      & info [ "window-cap-us" ] ~docv:"US"
          ~doc:"Upper bound for the adaptive coalescing window.")
  in
  let max_resident_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "max-resident-bytes" ] ~docv:"BYTES"
          ~doc:
            "Weight-residency budget across all models; admitting a \
             model beyond it evicts the least-recently-used one (its \
             weights reload from the model file on next use).  Default: \
             unlimited.")
  in
  let watch_arg =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Watch every model file for change and hot-swap verified new \
             weights with zero downtime (old weights serve until the new \
             checksum verifies).")
  in
  let deadline_shed_arg =
    Arg.(
      value & flag
      & info [ "deadline-shed" ]
          ~doc:
            "Shed requests predicted to miss the SLO target while the \
             error budget is nearly spent (needs $(b,--slo-target-us)).")
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window-us" ] ~docv:"US"
          ~doc:
            "Pin a fixed micro-batching window of $(docv) microseconds; \
             $(b,0) scores every request alone (the unbatched baseline).  \
             Without it the window adapts to the load.")
  in
  let max_batch_arg =
    Arg.(
      value
      & opt positive_int d.max_batch
      & info [ "max-batch" ] ~docv:"N" ~doc:"Largest coalesced batch.")
  in
  let queue_depth_arg =
    Arg.(
      value
      & opt positive_int d.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission bound: submissions beyond $(docv) queued requests \
             are shed.")
  in
  let clients_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent synthetic clients.")
  in
  let rps_arg =
    Arg.(
      value & opt float 0.0
      & info [ "rps" ] ~docv:"R"
          ~doc:
            "Aggregate offered load in requests/second, open loop: each \
             client sends on a fixed schedule and times every request \
             from when it was due, so a slow service shows in the \
             latencies rather than receiving less load.  $(b,0) runs \
             closed-loop (each client keeps one request in flight).")
  in
  let duration_arg =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"S" ~doc:"Load duration in seconds.")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve an OpenMetrics scrape endpoint on \
             $(b,127.0.0.1:)$(docv)$(b,/metrics) for the duration of the \
             run ($(b,0) picks an ephemeral port, printed on stderr).  \
             $(b,kf top --port) $(docv) gives a live view.")
  in
  let trace_sample_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:
            "Trace only about $(docv) of requests (deterministic in the \
             request id and $(b,KF_TRACE_SEED)); overrides \
             $(b,KF_TRACE_SAMPLE).  Only matters when tracing is on \
             ($(b,--trace)/$(b,--profile)).")
  in
  let slo_target_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-target-us" ] ~docv:"US"
          ~doc:
            "Attach a latency SLO: a request violates it when it fails \
             or resolves slower than $(docv) microseconds.  Violations \
             and the rolling error budget appear in the report, the \
             $(b,--json) output and the scrape endpoint.")
  in
  let slo_objective_arg =
    Arg.(
      value & opt float 0.99
      & info [ "slo-objective" ] ~docv:"Q"
          ~doc:
            "SLO objective: the fraction of requests (over the rolling \
             window) that must meet $(b,--slo-target-us).")
  in
  (* parsed straight into the service's and the load driver's records *)
  let config_term =
    let make window_us window_cap_us max_batch queue_depth deadline_shed =
      {
        Kf_serve.Service.window_us = Option.value window_us ~default:d.window_us;
        (* an explicit --window-us pins a fixed window *)
        adaptive = d.adaptive && window_us = None;
        window_cap_us;
        max_batch;
        queue_depth;
        deadline_shed;
      }
    in
    Term.(
      const make $ window_arg $ window_cap_arg $ max_batch_arg
      $ queue_depth_arg $ deadline_shed_arg)
  in
  let load_term =
    Term.(
      const (fun clients rps duration_s seed ->
          { Kf_serve.Driver.clients; rps; duration_s; seed })
      $ clients_arg $ rps_arg $ duration_arg $ seed_arg)
  in
  (* One path for one model or many: each --model is a registry entry. *)
  let serve () models { engine } (config : Kf_serve.Service.config)
      max_resident watch (load : Kf_serve.Driver.cfg) json obs metrics_port
      trace_sample slo_target slo_objective =
    let metrics_port = flag_or_env metrics_port Kf_serve.Scrape.port_var in
    with_obs ?sample:trace_sample obs @@ fun () ->
    let specs =
      List.map
        (fun s ->
          let name, path =
            match String.index_opt s '=' with
            | Some i ->
                (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
            | None -> (Filename.remove_extension (Filename.basename s), s)
          in
          let slo =
            Option.map
              (fun target_us ->
                Kf_obs.Slo.create ~target_us ~objective:slo_objective name)
              slo_target
          in
          { Kf_serve.Models.name; path; slo })
        models
    in
    let registry =
      (* a missing, corrupt or twice-named model is a usage error *)
      match
        Kf_serve.Models.create ~engine ~config ?max_resident_bytes:max_resident
          device specs
      with
      | registry -> registry
      | exception Invalid_argument msg ->
          Printf.eprintf "kf serve: %s\n%!" msg;
          exit 2
    in
    if watch then Kf_serve.Models.watch registry;
    let scrape =
      Option.map
        (fun p ->
          let s =
            Kf_serve.Scrape.start ~port:p
              ~render:(fun () ->
                Kf_obs.Openmetrics.render
                  (Kf_obs.Metrics.snapshot ~process_counters:true ()))
              ()
          in
          Printf.eprintf "metrics: http://127.0.0.1:%d/metrics\n%!"
            (Kf_serve.Scrape.port s);
          s)
        metrics_port
    in
    Fun.protect ~finally:(fun () -> Option.iter Kf_serve.Scrape.stop scrape)
    @@ fun () ->
    let summary = Kf_serve.Driver.run_models registry load in
    (if json then
       Kf_obs.Json.to_channel stdout
         (match Kf_serve.Driver.summary_json summary with
         | Kf_obs.Json.Obj fields ->
             Kf_obs.Json.Obj
               (fields @ [ ("registry", Kf_serve.Models.snapshot registry) ])
         | other -> other)
    else begin
      Printf.printf "serving %d model(s) (%s engine)%s\n" (List.length specs)
        (Fusion.Executor.engine_to_string engine)
        (if watch then ", hot-swap watch on" else "");
      Printf.printf "%s, max batch %d, queue depth %d, %d client(s), %s\n"
        (if config.adaptive then
           Printf.sprintf "adaptive window (cap %d us)" config.window_cap_us
         else Printf.sprintf "window %d us" config.window_us)
        config.max_batch config.queue_depth load.clients
        (if load.rps > 0.0 then Printf.sprintf "open loop at %g rps" load.rps
         else "closed loop");
      Printf.printf "%d requests in %.2f s: %.0f req/s\n" summary.ok
        summary.wall_s summary.throughput_rps;
      let q = Kf_obs.Histogram.quantile summary.latency_us in
      Printf.printf
        "latency p50 %.0f us, p95 %.0f us, p99 %.0f us, max %.0f us\n" (q 0.5)
        (q 0.95) (q 0.99)
        (Kf_obs.Histogram.max_value summary.latency_us);
      List.iter
        (fun (name, svc) ->
          let st = Kf_serve.Service.stats svc in
          Printf.printf
            "  %-12s %d features, gen %d, %d request(s), %d batch(es), mean \
             occupancy %.1f rows, %d swap(s), %d shed, %d failed\n"
            name (Kf_serve.Service.cols svc)
            (Option.value (Kf_serve.Service.live_generation svc) ~default:0)
            st.accepted st.batches
            (Kf_obs.Histogram.mean st.occupancy)
            st.swaps st.shed st.failures;
          Option.iter
            (fun s ->
              Printf.printf
                "slo %s: %.0f us at %g objective — %d violation(s), error \
                 budget %.2f %s\n"
                (Kf_obs.Slo.name s) (Kf_obs.Slo.target_us s)
                (Kf_obs.Slo.objective s) (Kf_obs.Slo.violations s)
                (Kf_obs.Slo.budget_remaining s)
                (if Kf_obs.Slo.compliant s then "(compliant)"
                 else "(EXHAUSTED)"))
            (Kf_serve.Service.slo svc))
        (Kf_serve.Models.services registry)
     end);
    Kf_serve.Models.shutdown registry
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the micro-batched scoring service on one or more trained \
          models and drive it with synthetic clients.")
    Term.(
      const serve $ setup_logs $ model_arg $ exec_term $ config_term
      $ max_resident_arg $ watch_arg $ load_term $ json_arg $ obs_term
      $ metrics_port_arg $ trace_sample_arg $ slo_target_arg
      $ slo_objective_arg)

(* ---- kf top ---- *)

(* Live terminal view of a scrape endpoint.  Each frame parses one
   scrape into a snapshot and pushes it onto a two-snapshot
   [Metrics.Window]: the window's diff gives counter rates (delta / dt)
   and window quantiles (the bucket-wise histogram difference), the
   standard cumulative-series technique. *)

let top_render ~addr ~port window (latest : Kf_obs.Metrics.snapshot) =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let series (s : Kf_obs.Metrics.sample) =
    if s.s_labels = [] then s.s_name
    else
      Printf.sprintf "%s{%s}" s.s_name
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) s.s_labels))
  in
  let span = Kf_obs.Metrics.Window.span_s window in
  let diff =
    if span > 0.0 then Kf_obs.Metrics.Window.diff window else None
  in
  let windowed (s : Kf_obs.Metrics.sample) =
    Option.bind diff (fun d ->
        Option.map
          (fun (w : Kf_obs.Metrics.sample) -> w.s_value)
          (Kf_obs.Metrics.find d ~name:s.s_name ~labels:s.s_labels ()))
  in
  let counters, hists, gauges =
    List.fold_right
      (fun (s : Kf_obs.Metrics.sample) (c, h, g) ->
        match s.s_value with
        | Kf_obs.Metrics.Vcounter v -> ((s, v) :: c, h, g)
        | Kf_obs.Metrics.Vhist x -> (c, (s, x) :: h, g)
        | Kf_obs.Metrics.Vgauge v -> (c, h, (s, v) :: g))
      latest.samples ([], [], [])
  in
  pf "kf top — %s:%d — %s\n\n" addr port
    (if Option.is_none diff then "first sample"
     else Printf.sprintf "window %.1f s" span);
  if counters <> [] then begin
    pf "%-46s %14s %12s\n" "COUNTERS" "total" "per-second";
    List.iter
      (fun (s, v) ->
        let rate =
          match windowed s with
          | Some (Kf_obs.Metrics.Vcounter d) -> Printf.sprintf "%.1f" (d /. span)
          | _ -> "-"
        in
        pf "%-46s %14.0f %12s\n" (series s) v rate)
      counters;
    pf "\n"
  end;
  if hists <> [] then begin
    pf "%-46s %8s %8s %8s %8s\n" "HISTOGRAMS (window)" "count" "p50" "p95"
      "p99";
    List.iter
      (fun (s, h) ->
        (* cumulative when the window recorded nothing *)
        let h =
          match windowed s with
          | Some (Kf_obs.Metrics.Vhist d) when Kf_obs.Histogram.count d > 0 -> d
          | _ -> h
        in
        pf "%-46s %8d %8.0f %8.0f %8.0f\n" (series s)
          (Kf_obs.Histogram.count h)
          (Kf_obs.Histogram.quantile h 0.5)
          (Kf_obs.Histogram.quantile h 0.95)
          (Kf_obs.Histogram.quantile h 0.99))
      hists;
    pf "\n"
  end;
  if gauges <> [] then begin
    pf "%-46s %14s\n" "GAUGES" "value";
    List.iter (fun (s, v) -> pf "%-46s %14g\n" (series s) v) gauges
  end;
  Buffer.contents buf

let top_cmd =
  let addr_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "addr" ] ~docv:"ADDR" ~doc:"Scrape endpoint address.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Scrape endpoint port — the $(b,--metrics-port) of a running \
             $(b,kf serve); $(b,KF_METRICS_PORT) supplies it when the \
             flag is absent.")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between polls.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) frames; $(b,0) polls until interrupted.  \
             $(b,1) is a plain one-shot dump.")
  in
  let top addr port interval iterations =
    let port =
      match flag_or_env port Kf_serve.Scrape.port_var with
      | Some p -> p
      | None ->
          Printf.eprintf "kf top: --port (or KF_METRICS_PORT) is required\n%!";
          exit 2
    in
    let clear = iterations <> 1 && Unix.isatty Unix.stdout in
    let window = Kf_obs.Metrics.Window.create ~capacity:2 () in
    let rec loop i =
      let scrape =
        Result.bind (Kf_serve.Scrape.fetch ~addr ~port ~path:"/metrics" ())
          (fun body ->
            Result.map_error (( ^ ) "malformed exposition: ")
              (Kf_obs.Openmetrics.parse body))
      in
      match scrape with
      | Error e ->
          Printf.eprintf "kf top: %s\n%!" e;
          exit 1
      | Ok snap ->
          Kf_obs.Metrics.Window.push window snap;
          if clear then print_string "\027[H\027[2J";
          print_string (top_render ~addr ~port window snap);
          flush stdout;
          if iterations = 0 || i < iterations then begin
            Unix.sleepf interval;
            loop (i + 1)
          end
    in
    loop 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a running $(b,kf serve --metrics-port) \
          endpoint: counter rates, window latency quantiles and SLO \
          gauges, refreshed every $(b,--interval).")
    Term.(const top $ addr_arg $ port_arg $ interval_arg $ iterations_arg)

(* ---- kf script ---- *)

let script_cmd =
  let file_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "f"; "file" ]
          ~doc:"DML script; omit to run the paper's Listing 1.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the plan report before running the plan: rewrite \
             counts, hoisted loop-invariant nodes, and every fusion group \
             with its candidate costs.")
  in
  let dump_ir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-ir" ] ~docv:"FILE"
          ~doc:"Write the compiled plan IR as JSON to $(docv).")
  in
  let graph_arg =
    Arg.(
      value & flag
      & info [ "graph" ]
          ~doc:
            "Bind graph-workload inputs instead of regression ones: $(b,\\$1) \
             becomes a sparse adjacency matrix over $(b,--rows) nodes and \
             $(b,\\$2) a dense $(b,--rows) x $(b,--dim) embedding.  Without \
             $(b,--file) the default program becomes the SDDMM+SpMM graph \
             listing rather than the paper's Listing 1.")
  in
  let dim_arg =
    Arg.(
      value & opt int 16
      & info [ "dim" ] ~docv:"D"
          ~doc:"Embedding width for $(b,--graph) inputs.")
  in
  let script () p file { engine } obs explain dump_ir graph dim =
    with_obs obs @@ fun () ->
    (* a script that does not parse or type-check is a usage error *)
    let usage msg =
      Printf.eprintf "kf script: %s: %s\n%!"
        (Option.value file ~default:"built-in listing")
        msg;
      exit 2
    in
    let program =
      try
        match file with
        | Some path -> Sysml.Dml.parse_file path
        | None ->
            Sysml.Dml.parse
              (if graph then Sysml.Dml.graph_listing else Sysml.Dml.listing1)
      with Sysml.Dml.Syntax_error msg -> usage msg
    in
    let positional =
      if graph then begin
        let rng = Rng.create p.seed in
        let out_degree = max 1 (int_of_float (p.density *. float p.rows)) in
        let g = Kf_ml.Dataset.adjacency rng ~nodes:p.rows ~out_degree in
        let h = Gen.dense rng ~rows:p.rows ~cols:dim in
        [
          Sysml.Script.Matrix (Fusion.Executor.Sparse g);
          Sysml.Script.Matrix (Fusion.Executor.Dense h);
        ]
      end
      else begin
        let input, targets = input_and_targets p in
        [ Sysml.Script.Matrix input; Sysml.Script.Vector targets ]
      end
    in
    let run () =
      match
        Kf_plan.Compiler.compile ~engine ~positional device ~inputs:[] program
      with
      | exception Kf_plan.Lower.Not_static reason ->
          Printf.eprintf
            "kf script: not compiled (%s); running the reference \
             interpreter\n%!"
            reason;
          Sysml.Script.eval ~engine device ~inputs:[] ~positional program
      | compiled ->
          (* compiled once: --dump-ir and --explain report the plan that
             runs *)
          Option.iter
            (fun path ->
              let oc = open_out path in
              Kf_obs.Json.to_channel oc (Kf_plan.Compiler.to_json compiled);
              close_out oc;
              Printf.printf "plan IR written to %s\n" path)
            dump_ir;
          if explain then print_string (Kf_plan.Compiler.explain compiled);
          Kf_plan.Compiler.execute compiled
    in
    let r = try run () with Sysml.Script.Type_error msg -> usage msg in
    Printf.printf
      "script finished: %.2f ms simulated device time, %d fused launches\n"
      r.Sysml.Script.gpu_ms r.Sysml.Script.fused_launches;
    print_instantiations r.Sysml.Script.trace;
    List.iter
      (fun (name, v) ->
        match v with
        | Sysml.Script.Num f -> Printf.printf "output %s = %g\n" name f
        | Sysml.Script.Vector v ->
            Printf.printf "output %s = vector of %d elements (norm %g)\n" name
              (Array.length v) (Vec.nrm2 v)
        | Sysml.Script.Matrix _ -> Printf.printf "output %s = matrix\n" name)
      r.Sysml.Script.outputs
  in
  Cmd.v
    (Cmd.info "script"
       ~doc:
         "Run a DML script (default: the paper's Listing 1) on synthetic \
          inputs bound to $(b,\\$1) (matrix) and $(b,\\$2) (targets).  The \
          fusion plan compiler picks a fused kernel wherever an operator \
          tree matches one; a script whose types depend on run-time \
          values runs on the unfused reference interpreter instead, after \
          a note on stderr.")
    Term.(
      const script $ setup_logs $ problem_term $ file_arg $ exec_term
      $ obs_term $ explain_arg $ dump_ir_arg $ graph_arg $ dim_arg)

let () =
  (* every KF_* variable is checked before any work, workers included *)
  (match Kf_obs.Env.check_all () with
  | Ok () -> ()
  | Error e ->
      prerr_endline (Kf_obs.Env.message e);
      exit 2);
  (* a dist worker process never reaches the CLI: this call serves the
     coordinator's requests and exits when KF_DIST_WORKER is set *)
  Kf_dist.Worker.maybe_run ();
  let env (v : Kf_obs.Env.info) =
    Cmd.Env.info v.name
      ~doc:
        (Printf.sprintf "%s Accepted: %s.  Default: %s." v.doc v.accepted
           v.default)
  in
  let info =
    Cmd.info "kf" ~version:"1.0.0"
      ~envs:(List.map env (Kf_obs.Env.declared ()))
      ~doc:"Fused GPU kernels for ML patterns (PPoPP'15 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; tune_cmd; codegen_cmd; train_cmd; serve_cmd; top_cmd;
            script_cmd;
          ]))
