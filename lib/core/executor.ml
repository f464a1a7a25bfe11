open Gpu_sim

let log_src = Logs.Src.create "fusion.executor" ~doc:"pattern dispatch"

module Log = (val Logs.src_log log_src : Logs.LOG)

type engine = Fused | Library | Host | Dist

type input = Sparse of Matrix.Csr.t | Dense of Matrix.Dense.t

type result = {
  w : Matrix.Vec.t;
  reports : Sim.report list;
  time_ms : float;
  instantiation : Pattern.instantiation option;
  engine_used : string;
}

(* The graph entry points return matrices (sparse S or dense Z) rather
   than a vector, and carry a family-generic descriptor instead of an
   Equation-1 instantiation; everything else is shared with the vector
   ops through {!execute}. *)
type mat_result = {
  m_value : input;
  m_reports : Sim.report list;
  m_time_ms : float;
  m_desc : Pattern_family.descriptor option;
  m_engine_used : string;
}

let rows = function
  | Sparse x -> x.Matrix.Csr.rows
  | Dense x -> x.Matrix.Dense.rows

let cols = function
  | Sparse x -> x.Matrix.Csr.cols
  | Dense x -> x.Matrix.Dense.cols

let bytes = function
  | Sparse x -> Matrix.Csr.bytes x
  | Dense x -> Matrix.Dense.bytes x

let nnz = function
  | Sparse x -> Matrix.Csr.nnz x
  | Dense x -> x.Matrix.Dense.rows * x.Matrix.Dense.cols

(* The one spelling of engine names: [bin/kf]'s flag parsing, the
   KF_ENGINE environment handling and the bench suites all go through
   this pair rather than keeping private copies. *)
let engines = [ Fused; Library; Host; Dist ]

let engine_to_string = function
  | Fused -> "fused"
  | Library -> "library"
  | Host -> "host"
  | Dist -> "dist"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fused" -> Some Fused
  | "library" -> Some Library
  | "host" -> Some Host
  | "dist" -> Some Dist
  | _ -> None

let engine_var =
  Kf_obs.Env.enum ~all:engines ~to_string:engine_to_string
    ~of_string:engine_of_string "KF_ENGINE"
    ~doc:"Engine of every kf subcommand without --engine." ~default:"fused"

let ops_counter = Kf_obs.Counter.make "executor.ops"

let host_ops_counter = Kf_obs.Counter.make "executor.host_ops"

let dist_ops_counter = Kf_obs.Counter.make "executor.dist_ops"

let host_pool = function Some p -> p | None -> Par.Pool.default ()

(* --- guarded dispatch ----------------------------------------------------- *)

(* Recovery plumbing: when fault injection or numerical guards are
   active, every public op runs through [recover], which arms the fault
   points below this layer, checks the output's health, and walks a
   bounded retry-with-fallback chain — retry the same engine once, step
   down Host/Fused -> Library, and as a last resort run the sequential
   reference BLAS, which depends on nothing that can be injected.  With
   faults inactive *and* guards disabled {!execute} calls the engine
   directly instead. *)

let retries_counter = Kf_obs.Counter.make "resil.retries"

let fallbacks_counter = Kf_obs.Counter.make "resil.fallbacks"

let reference_counter = Kf_obs.Counter.make "resil.reference_runs"

(* One retry on the engine the caller asked for, then progressively
   simpler engines: the multi-process tier falls back to single-process
   Host, and Library is the floor among engines because it is a chain of
   independent single-kernel launches. *)
let attempt_plan engine =
  let tail =
    match engine with
    | Dist -> [ Host; Library ]
    | Host | Fused -> [ Library ]
    | Library -> []
  in
  engine :: engine :: tail

let describe_failure = function
  | Kf_resil.Fault.Injected { kind; point } ->
      Printf.sprintf "injected %s fault at %s" (Kf_resil.Fault.kind_name kind)
        point
  | Kf_resil.Guard.Unhealthy { index; value; point } ->
      Printf.sprintf "non-finite output (w.(%d) = %h) at %s" index value point
  | e -> Printexc.to_string e

(* Polymorphic over the result record — Equation-1 ops guard a vector
   result, the graph ops a matrix one; [vec_of] projects the raw float
   payload the fault injector poisons and the guard inspects. *)
let recover ~faults ~op ~engine ~vec_of ~dispatch ~reference =
  let point = "executor." ^ op in
  let attempt e =
    Kf_resil.Fault.with_arm @@ fun () ->
    Kf_resil.Fault.check Kf_resil.Fault.Launch ~point;
    let r = dispatch e in
    if faults then Kf_resil.Fault.poison ~point (vec_of r);
    Kf_resil.Guard.check_vec ~point (vec_of r);
    r
  in
  let note verb e exn =
    let cause = describe_failure exn in
    let e = engine_to_string e in
    Kf_obs.Trace.instant ("resil." ^ verb)
      ~args:[ ("op", op); ("engine", e); ("cause", cause) ];
    Log.warn (fun m -> m "%s after %s on %s %s" verb cause e op)
  in
  let rec run = function
    | [] ->
        Kf_obs.Counter.incr reference_counter;
        let r = reference () in
        (* if even the reference output is unhealthy the data itself is
           bad: surface it rather than return garbage *)
        Kf_resil.Guard.check_vec ~point:(point ^ ".reference") (vec_of r);
        r
    | e :: rest -> (
        try attempt e
        with (Kf_resil.Fault.Injected _ | Kf_resil.Guard.Unhealthy _) as exn ->
          (match rest with
          | e' :: _ when e' = e ->
              Kf_obs.Counter.incr retries_counter;
              note "retry" e exn
          | _ ->
              Kf_obs.Counter.incr fallbacks_counter;
              note "fallback" e exn);
          run rest)
  in
  run (attempt_plan engine)

(* --- the execution skeleton ----------------------------------------------- *)

(* What one engine branch of an op runs; {!execute} does everything
   else. *)
type 'a run =
  | Simulated of string * 'a * Sim.report list
      (** engine_used, value and the simulated kernel reports *)
  | On_host of string * (unit -> 'a)
      (** engine_used and the real multicore kernel *)
  | On_cluster of (Kf_dist.Cluster.t -> 'a)
      (** the sharded op; engine_used is read back from the cluster
          afterwards, when the shard map has fixed the 1D/1.5D choice *)
  | No_dist_kernel  (** the op is not sharded: defer to [Host] *)

(* How each public result record is built from the shared fields. *)
type ('a, 'meta, 'r) kind = {
  pack : 'meta -> 'a -> Sim.report list -> float -> string -> 'r;
  vec_of : 'r -> Matrix.Vec.t;
  reference_used : string;
}

let vector =
  {
    pack =
      (fun instantiation w reports time_ms engine_used ->
        { w; reports; time_ms; instantiation; engine_used });
    vec_of = (fun r -> r.w);
    reference_used = "reference sequential blas";
  }

let matrix =
  {
    pack =
      (fun m_desc m_value m_reports m_time_ms m_engine_used ->
        { m_value; m_reports; m_time_ms; m_desc; m_engine_used });
    vec_of =
      (fun r ->
        match r.m_value with
        | Sparse s -> s.Matrix.Csr.values
        | Dense d -> d.Matrix.Dense.data);
    reference_used = "reference sequential fusedmm";
  }

(* Every public op is [branch] (what runs on each engine) plus a
   sequential [reference]; this is the rest, once.  [t0] is taken on
   entry, so the [executor.<op>] span covers dispatch plus execution on
   every engine and across recovery attempts.  Simulated engines report
   the summed kernel time as [time_ms]; the real ones (Host, Dist, the
   reference) report measured wall-clock time and no kernel reports.
   Host kernels record into whatever [Host_stats] sink the caller
   installed; after each host op the sink's running totals are sampled
   onto the trace's [host.*] counter tracks.  [place] puts every
   engine's value where the caller asked for it (see [place_into]). *)
let execute ?cluster ?(place = Fun.id) kind ~op ~input ~meta ~engine
    ~reference branch =
  let t0 = Kf_obs.Clock.now_ns () in
  (* [reports] present means simulated: [time_ms] is their sum. *)
  let finish ~engine_used ?reports value =
    let value = place value in
    let wall_ns = Kf_obs.Clock.now_ns () - t0 in
    Kf_obs.Counter.incr ops_counter;
    if Kf_obs.Trace.enabled () then
      Kf_obs.Trace.complete
        ~name:("executor." ^ op)
        ~args:
          [
            ("decision", engine_used);
            ("rows", string_of_int (rows input));
            ("cols", string_of_int (cols input));
            ("nnz", string_of_int (nnz input));
          ]
        ~ts_ns:t0 ~dur_ns:wall_ns ();
    match reports with
    | Some reports ->
        let time_ms = Sim.total_ms reports in
        Log.debug (fun m ->
            m "%s: %d kernel(s), %.3f ms" engine_used (List.length reports)
              time_ms);
        kind.pack meta value reports time_ms engine_used
    | None ->
        let time_ms = Kf_obs.Clock.ns_to_ms wall_ns in
        Log.debug (fun m -> m "%s: %.3f ms wall-clock" engine_used time_ms);
        kind.pack meta value [] time_ms engine_used
  in
  let rec dispatch engine =
    match branch engine with
    | Simulated (engine_used, value, reports) ->
        finish ~engine_used ~reports value
    | On_host (engine_used, kernel) ->
        let r = finish ~engine_used (kernel ()) in
        Kf_obs.Host_stats.emit_trace_counters ();
        Kf_obs.Counter.incr host_ops_counter;
        r
    | On_cluster sharded -> (
        match
          let c =
            match cluster with Some c -> c | None -> Kf_dist.Cluster.default ()
          in
          (c, sharded c)
        with
        | c, value ->
            let r =
              finish ~engine_used:(Kf_dist.Cluster.describe c) value
            in
            Kf_obs.Counter.incr dist_ops_counter;
            r
        | exception Kf_dist.Cluster.Unavailable reason -> to_host reason)
    | No_dist_kernel -> to_host ("no " ^ op ^ " kernel")
  and to_host reason =
    Log.warn (fun m ->
        m "dist engine unavailable (%s); falling back to host" reason);
    dispatch Host
  in
  let faults = Kf_resil.Fault.active () in
  if not (faults || Kf_resil.Guard.enabled ()) then dispatch engine
  else
    recover ~faults ~op ~engine ~vec_of:kind.vec_of ~dispatch
      ~reference:(fun () ->
        finish ~engine_used:kind.reference_used (reference ()))

(* --- Equation-1 ops ------------------------------------------------------- *)

(* The [?into] contract of the vector ops: the fused host kernels write
   their final pass straight into [into]; every other result (the other
   engines', the host's unfused dense [xt_y] and the reference's) is
   copied into it once, so every engine returns [into] itself. *)
let place_into into w =
  match into with
  | Some d when d != w ->
      Array.blit w 0 d 0 (Array.length d);
      d
  | _ -> w

(* [layout] is "dense-acc" for the Equation-1 kernels, or
   "row-disjoint" for the graph kernels. *)
let host_used ~kernel ~pool layout =
  Printf.sprintf "host %s [%s, %d domain%s]" kernel layout (Par.Pool.size pool)
    (if Par.Pool.size pool = 1 then "" else "s")

let eq1_layout = Host_fused.variant_name Host_fused.Dense_acc

(* Library composition for the trailing BLAS-1 work: w <- alpha*w, then
   optionally w <- w + beta*z (two more kernel launches). *)
let library_epilogue device ~alpha ~beta_z w reports =
  let w, r1 =
    if alpha = 1.0 then (w, []) else Gpulibs.Cublas.scal device alpha w
  in
  match beta_z with
  | None -> (w, reports @ r1)
  | Some (beta, z) ->
      let bz, r2 = Gpulibs.Cublas.scal device beta z in
      let w, r3 = Gpulibs.Cublas.axpy device 1.0 bz w in
      (w, reports @ r1 @ r2 @ r3)

let xt_y ?(engine = Fused) ?pool ?cluster ?into device input y ~alpha =
  Host_fused.check_into ~cols:(cols input) ~name:"Executor.xt_y" ~inputs:[ y ]
    into;
  execute vector ~op:"xt_y" ~input ~meta:(Some Pattern.Xt_y) ?cluster
    ~place:(place_into into) ~engine
    ~reference:(fun () ->
      Matrix.Blas.finish_pattern ~alpha ~beta:None ~z:None
        (match input with
        | Sparse x -> Matrix.Blas.csrmv_t x y
        | Dense x -> Matrix.Blas.gemv_t x y))
  @@ fun engine ->
  match (engine, input) with
  | Dist, Sparse x ->
      On_cluster (fun c -> Kf_dist.Cluster.xt_y_sparse c x ~y ~alpha)
  | Dist, Dense x ->
      On_cluster (fun c -> Kf_dist.Cluster.xt_y_dense c x ~y ~alpha)
  | Host, Sparse x ->
      let pool = host_pool pool in
      On_host
        ( host_used ~kernel:"fused X^T*p" ~pool eq1_layout,
          fun () -> Host_fused.xt_p ~pool ?into ~alpha x y )
  | Host, Dense x ->
      (* Mirrors the Fused/Library dense dispatch: X^T*y is a single
         pass already, so the "library" gemv_t is used, parallelised
         (the same per-domain-accumulator kernel as the fused ops). *)
      let pool = host_pool pool in
      On_host
        ( Printf.sprintf "host par_gemv_t [%d domains]" (Par.Pool.size pool),
          fun () ->
            let w = Matrix.Blas.par_gemv_t ~pool x y in
            Matrix.Vec.scal alpha w;
            w )
  | Fused, Sparse x ->
      let w, reports, plan = Fused_sparse.xt_p device x y ~alpha in
      Simulated
        ( (if plan.sp_large_n then "fused sparse X^T*p (large-n)"
           else "fused sparse X^T*p"),
          w,
          reports )
  | Library, Sparse x ->
      let w, reports = Gpulibs.Cusparse.csrmv_t device x y in
      let w, reports = library_epilogue device ~alpha ~beta_z:None w reports in
      Simulated ("cusparse csrmv (transpose mode)", w, reports)
  | (Fused | Library), Dense x ->
      (* The paper does not fuse X^T*y for dense data: cuBLAS's gemv is
         already a single pass. *)
      let w, reports = Gpulibs.Cublas.gemv_t device x y in
      let w, reports = library_epilogue device ~alpha ~beta_z:None w reports in
      Simulated ("cublas gemv (transpose)", w, reports)

let library_pattern device input ~y ?v ?beta_z ~alpha () =
  let p, reports =
    match input with
    | Sparse x -> Gpulibs.Cusparse.csrmv device x y
    | Dense x -> Gpulibs.Cublas.gemv device x y
  in
  let p, reports =
    match v with
    | None -> (p, reports)
    | Some v ->
        let p, r = Gpulibs.Cublas.mul_elementwise device v p in
        (p, reports @ r)
  in
  let w, reports =
    match input with
    | Sparse x ->
        let w, r = Gpulibs.Cusparse.csrmv_t device x p in
        (w, reports @ r)
    | Dense x ->
        let w, r = Gpulibs.Cublas.gemv_t device x p in
        (w, reports @ r)
  in
  library_epilogue device ~alpha ~beta_z w reports

let pattern ?(engine = Fused) ?pool ?cluster ?into device input ~y ?v ?beta_z
    ~alpha () =
  let meta =
    Some
      (Pattern.classify_shape
         {
           first_multiply = true;
           weighted = v <> None;
           additive_tail = beta_z <> None;
         })
  in
  let beta, z =
    match beta_z with None -> (None, None) | Some (b, z) -> (Some b, Some z)
  in
  Host_fused.check_into ~cols:(cols input) ~name:"Executor.pattern"
    ~inputs:(y :: (Option.to_list v @ Option.to_list z))
    into;
  execute vector ~op:"pattern" ~input ~meta ?cluster ~place:(place_into into)
    ~engine
    ~reference:(fun () ->
      match input with
      | Sparse x -> Matrix.Blas.pattern_sparse ~alpha x ?v y ?beta ?z ()
      | Dense x -> Matrix.Blas.pattern_dense ~alpha x ?v y ?beta ?z ())
  @@ fun engine ->
  match (engine, input) with
  | Dist, Sparse x ->
      On_cluster
        (fun c -> Kf_dist.Cluster.pattern_sparse c x ~y ?v ?beta_z ~alpha ())
  | Dist, Dense x ->
      On_cluster
        (fun c -> Kf_dist.Cluster.pattern_dense c x ~y ?v ?beta_z ~alpha ())
  | Host, Sparse x ->
      let pool = host_pool pool in
      On_host
        ( host_used ~kernel:"fused sparse" ~pool eq1_layout,
          fun () ->
            Host_fused.pattern_sparse ~pool ?into ~alpha x ?v y ?beta ?z () )
  | Host, Dense x ->
      let pool = host_pool pool in
      On_host
        ( host_used ~kernel:"fused dense" ~pool eq1_layout,
          fun () ->
            Host_fused.pattern_dense ~pool ?into ~alpha x ?v y ?beta ?z () )
  | Fused, Sparse x ->
      let w, reports, plan =
        Fused_sparse.pattern device x ~y ?v ?beta_z ~alpha ()
      in
      Simulated
        ( (if plan.sp_large_n then "fused sparse (large-n)" else "fused sparse"),
          w,
          reports )
  | Fused, Dense x -> (
      match Fused_dense.pattern device x ~y ?v ?beta_z ~alpha () with
      | w, reports, _plan, spec ->
          Simulated ("fused dense " ^ Codegen.kernel_name spec, w, reports)
      | exception Invalid_argument _ ->
          (* Columns beyond the register budget: the paper prescribes
             falling back to two cuBLAS launches (Section 3.2). *)
          let w, reports = library_pattern device input ~y ?v ?beta_z ~alpha () in
          Simulated
            ("cublas fallback (columns exceed register budget)", w, reports))
  | Library, Sparse _ ->
      let w, reports = library_pattern device input ~y ?v ?beta_z ~alpha () in
      Simulated ("cusparse csrmv + csrmv_t (+ cublas level-1)", w, reports)
  | Library, Dense _ ->
      let w, reports = library_pattern device input ~y ?v ?beta_z ~alpha () in
      Simulated ("cublas gemv + gemv_t (+ level-1)", w, reports)

let x_y ?(engine = Fused) ?pool ?cluster device input y =
  execute vector ~op:"x_y" ~input ~meta:None ?cluster ~engine
    ~reference:(fun () ->
      match input with
      | Sparse x -> Matrix.Blas.csrmv x y
      | Dense x -> Matrix.Blas.gemv x y)
  @@ fun engine ->
  match (engine, input) with
  | Dist, Sparse x -> On_cluster (fun c -> Kf_dist.Cluster.x_y_sparse c x y)
  | Dist, Dense x -> On_cluster (fun c -> Kf_dist.Cluster.x_y_dense c x y)
  | Host, Sparse x ->
      let pool = host_pool pool in
      On_host
        ( Printf.sprintf "host par_csrmv [%d domains]" (Par.Pool.size pool),
          fun () -> Matrix.Blas.par_csrmv ~pool x y )
  | Host, Dense x ->
      let pool = host_pool pool in
      On_host
        ( Printf.sprintf "host par_gemv [%d domains]" (Par.Pool.size pool),
          fun () -> Matrix.Blas.par_gemv ~pool x y )
  | (Fused | Library), Sparse x ->
      let w, reports = Gpulibs.Cusparse.csrmv device x y in
      Simulated ("cusparse csrmv", w, reports)
  | (Fused | Library), Dense x ->
      let w, reports = Gpulibs.Cublas.gemv device x y in
      Simulated ("cublas gemv", w, reports)

(* --- graph ops: the fusedmm family ----------------------------------------- *)

(* Graph ops are not sharded yet: on Dist they defer to the host kernels
   through the same path an unavailable cluster takes. *)

let fusedmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) device inst
    (g : Matrix.Csr.t) (h : Matrix.Dense.t) =
  Fusedmm.check ~name:"Executor.fusedmm" inst g h;
  execute matrix ~op:"fusedmm" ~input:(Sparse g)
    ~meta:(Some (Fusedmm.descriptor ~semiring:semiring.Semiring.name inst))
    ~engine
    ~reference:(fun () -> Dense (Fusedmm.fused ~semiring inst g h))
  @@ function
  | Dist -> No_dist_kernel
  | Host ->
      let pool = host_pool pool in
      On_host
        ( host_used ~kernel:("fusedmm " ^ Fusedmm.inst_key inst) ~pool
            "row-disjoint",
          fun () -> Dense (Host_fused.fusedmm ~pool ~semiring inst g h) )
  | Fused ->
      let z, reports, _plan = Fusedmm.sim_fused device semiring inst g h in
      Simulated
        ( Printf.sprintf "fused %s [%s]"
            (match inst with
            | Fusedmm.Sddmm_spmm -> "sddmm+spmm"
            | Fusedmm.Spmm -> "spmm")
            semiring.Semiring.name,
          Dense z,
          reports )
  | Library -> (
      (* the unfused composition the paper argues against:
         materialise S, then aggregate it in a second launch *)
      match inst with
      | Fusedmm.Spmm ->
          let z, reports, _ = Fusedmm.sim_spmm device semiring g h in
          Simulated ("cusparse-style spmm", Dense z, reports)
      | Fusedmm.Sddmm_spmm ->
          let s, r1, plan = Fusedmm.sim_sddmm device semiring g h in
          let z, r2, _ = Fusedmm.sim_spmm ~plan device semiring s h in
          Simulated
            ( "sddmm + spmm (two launches, S materialised)",
              Dense z,
              r1 @ r2 ))

(* Standalone SDDMM is a building block, not a family instantiation: the
   trace records nothing for it. *)
let sddmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) device
    (g : Matrix.Csr.t) (h : Matrix.Dense.t) =
  execute matrix ~op:"sddmm" ~input:(Sparse g) ~meta:None ~engine
    ~reference:(fun () -> Sparse (Fusedmm.sddmm ~semiring g h))
  @@ function
  | Dist -> No_dist_kernel
  | Host ->
      let pool = host_pool pool in
      On_host
        ( host_used ~kernel:"sddmm" ~pool "row-disjoint",
          fun () -> Sparse (Host_fused.sddmm ~pool ~semiring g h) )
  | Fused | Library ->
      (* one kernel either way: there is nothing to fuse until the
         consumer is known (that is the plan compiler's job) *)
      let s, reports, _ = Fusedmm.sim_sddmm device semiring g h in
      Simulated ("sddmm [" ^ semiring.Semiring.name ^ "]", Sparse s, reports)

let spmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) device
    (s : Matrix.Csr.t) (h : Matrix.Dense.t) =
  execute matrix ~op:"spmm" ~input:(Sparse s)
    ~meta:
      (Some (Fusedmm.descriptor ~semiring:semiring.Semiring.name Fusedmm.Spmm))
    ~engine
    ~reference:(fun () -> Dense (Fusedmm.spmm ~semiring s h))
  @@ function
  | Dist -> No_dist_kernel
  | Host ->
      let pool = host_pool pool in
      On_host
        ( host_used ~kernel:"spmm" ~pool "row-disjoint",
          fun () -> Dense (Host_fused.spmm ~pool ~semiring s h) )
  | Fused | Library ->
      let z, reports, _ = Fusedmm.sim_spmm device semiring s h in
      Simulated ("spmm [" ^ semiring.Semiring.name ^ "]", Dense z, reports)
