open Matrix

(* In-process scoring service with a micro-batching scheduler.

   Clients submit single-row scoring requests; a dedicated scheduler
   domain coalesces every request that arrives within a bounded window
   into one dense/CSR block, runs a single batched predict through the
   executor (one launch per weight vector, whatever the batch size),
   and scatters the scores back to per-request tickets.  This is the
   serving-side instance of the paper's fusion economics: N concurrent
   requests share the weight vector exactly as Eq. 1's operands share
   X, so executing them as one launch amortises the per-launch overhead
   that dominates single-row scoring.

   The scheduler is event-driven, not polling: a submission that fills
   the batch to [max_batch] wakes it immediately, so under load batches
   close at the cap with no timer in the path.  Only a partial batch
   relies on the timer tick to notice its window expired — the one case
   where someone must wake the scheduler because no more submissions
   are coming.

   The window itself is either fixed ([config.window_us]) or, with
   [config.adaptive], steered per dispatch by {!Controller}: sparse
   traffic decays it to 0 (no request waits for co-arrivals that never
   come), load grows it additively toward [window_cap_us].

   Weights live behind an atomic cell read once per batch, which makes
   hot-swap linearisable at batch granularity: a batch scores entirely
   against one generation or entirely against the next, never a mix,
   and swapping costs the serving path nothing (one atomic load it was
   already paying). *)

type row = Dense_row of float array | Sparse_row of int array * float array

type outcome = Score of float | Failed of string

(* Tickets share the service-wide [done_mu]/[done_cv] pair: the
   scheduler resolves a whole batch under one lock with one broadcast,
   instead of a lock + signal per request.

   [t_id] is the process-wide request id — the trace-correlation key
   and the input to the deterministic trace sampler.  [t_sampled] is
   decided once at submission, so every span of one request (submit,
   queue, execute, resolve) makes the same decision.  [t_generation]
   records which weight generation scored the request — the witness the
   hot-swap chaos test audits for mixed-generation batches. *)
type ticket = {
  t_id : int;
  t_sampled : bool;
  t_row : row;
  t_enqueue_ns : int;
  mutable t_outcome : outcome option;
  mutable t_done_ns : int;
  mutable t_generation : int;
  t_done_mu : Mutex.t;
  t_done_cv : Condition.t;
}

let next_request_id = Atomic.make 0

type config = {
  window_us : int;
  max_batch : int;
  queue_depth : int;
  adaptive : bool;
  window_cap_us : int;
  deadline_shed : bool;
}

let default_config =
  {
    window_us = 200;
    max_batch = 32;
    queue_depth = 1024;
    adaptive = true;
    window_cap_us = 500;
    deadline_shed = false;
  }

type stats = {
  accepted : int;
  shed : int;
  deadline_shed : int;
  batches : int;
  failures : int;
  batch_retries : int;
  swaps : int;
  exec_ms : float;
  queue_us : Kf_obs.Histogram.t;
  latency_us : Kf_obs.Histogram.t;
  occupancy : Kf_obs.Histogram.t;
}

type metrics_cells = {
  m_requests : Kf_obs.Metrics.counter;
  m_shed : Kf_obs.Metrics.counter;
  m_deadline_shed : Kf_obs.Metrics.counter;
  m_batches : Kf_obs.Metrics.counter;
  m_failures : Kf_obs.Metrics.counter;
  m_retries : Kf_obs.Metrics.counter;
  m_swaps : Kf_obs.Metrics.counter;
  m_queue_depth : Kf_obs.Metrics.gauge;
  m_window : Kf_obs.Metrics.gauge;
  m_generation : Kf_obs.Metrics.gauge;
  m_latency : Kf_obs.Metrics.histogram;
  m_queue : Kf_obs.Metrics.histogram;
  m_occupancy : Kf_obs.Metrics.histogram;
}

(* The weights a batch scores against: scorer, generation and the
   checkpoint checksum that produced it, published together so a single
   atomic load gives the scheduler a consistent triple. *)
type live = {
  l_scorer : Kf_ml.Algorithm.scorer;
  l_generation : int;
  l_checksum : string;
}

type t = {
  device : Gpu_sim.Device.t;
  engine : Fusion.Executor.engine;
  pool : Par.Pool.t option;
  algo : (module Kf_ml.Algorithm.S);
  cols : int;
  model : string;  (** metric/SLO label: algorithm name unless overridden *)
  slo : Kf_obs.Slo.t option;
  metrics : metrics_cells;
  cfg : config;
  cap : int;  (** effective batch cap: 1 when fixed [window_us = 0] *)
  ctrl : Controller.params option;  (** [Some] iff [cfg.adaptive] *)
  live : live option Atomic.t;  (** [None] = weights evicted *)
  gen_counter : int Atomic.t;  (** next generation number *)
  mutable provider : (unit -> unit) option;
  mu : Mutex.t;  (** guards [queue], [stopped], [accepted], [shed], controller *)
  nonempty : Condition.t;  (** wakes the scheduler *)
  timer_cv : Condition.t;  (** parks the window timer while it has no job *)
  mutable timer_armed : bool;  (** timer is ticking (not parked); under [mu] *)
  done_mu : Mutex.t;
  done_cv : Condition.t;
  queue : ticket Queue.t;
  mutable stopped : bool;
  mutable scheduler : unit Domain.t option;
  mutable ctrl_state : Controller.state;  (** written by scheduler under [mu] *)
  mutable exec_ewma_us : float;
      (** EWMA of wall-clock batch execution, the deadline estimator's
          service-time term; single word, torn reads impossible *)
  (* tallies and histograms below are written by the scheduler domain
     only (except [accepted]/[shed]/[deadline_shed_n], written under
     [mu] by submitters, and [swaps], by whoever swaps); every write
     lands before the batch's tickets resolve, so a client returning
     from [await] observes its own request in a snapshot *)
  mutable accepted : int;
  mutable shed : int;
  mutable deadline_shed_n : int;
  mutable batches : int;
  mutable failures : int;
  mutable batch_retries : int;
  swaps : int Atomic.t;
  mutable exec_ms : float;
  queue_hist : Kf_obs.Histogram.t;
  latency_hist : Kf_obs.Histogram.t;
  occupancy_hist : Kf_obs.Histogram.t;
}

(* Labeled time-series cells for the scrape endpoint; one label set per
   served model, so several services in one process stay separable. *)
let make_metrics ~model =
  let labels = [ ("model", model) ] in
  {
    m_requests =
      Kf_obs.Metrics.counter ~help:"Requests accepted." ~labels
        "kf_serve_requests";
    m_shed =
      Kf_obs.Metrics.counter ~help:"Requests shed at the admission bound."
        ~labels "kf_serve_shed";
    m_deadline_shed =
      Kf_obs.Metrics.counter
        ~help:"Requests shed by the deadline predictor (subset of shed)."
        ~labels "kf_serve_deadline_shed";
    m_batches =
      Kf_obs.Metrics.counter ~help:"Batches executed." ~labels
        "kf_serve_batches";
    m_failures =
      Kf_obs.Metrics.counter ~help:"Requests resolved Failed." ~labels
        "kf_serve_failures";
    m_retries =
      Kf_obs.Metrics.counter ~help:"Whole-batch retries." ~labels
        "kf_serve_batch_retries";
    m_swaps =
      Kf_obs.Metrics.counter ~help:"Weight hot-swaps published." ~labels
        "kf_serve_swaps";
    m_queue_depth =
      Kf_obs.Metrics.gauge ~help:"Requests waiting at last dispatch." ~labels
        "kf_serve_queue_depth";
    m_window =
      Kf_obs.Metrics.gauge ~help:"Coalescing window at last dispatch (us)."
        ~labels "kf_serve_window_us";
    m_generation =
      Kf_obs.Metrics.gauge ~help:"Live weight generation (0 = unloaded)."
        ~labels "kf_serve_generation";
    m_latency =
      Kf_obs.Metrics.histogram ~help:"Submit-to-resolve latency (us)."
        ~labels "kf_serve_request_latency_us";
    m_queue =
      Kf_obs.Metrics.histogram ~help:"Submit-to-dispatch queue wait (us)."
        ~labels "kf_serve_queue_wait_us";
    m_occupancy =
      Kf_obs.Metrics.histogram ~help:"Rows per executed batch." ~labels
        "kf_serve_batch_occupancy";
  }

(* --- request validation -------------------------------------------------- *)

let validate_row t = function
  | Dense_row v ->
      if Array.length v <> t.cols then
        invalid_arg
          (Printf.sprintf
             "Service.submit: dense row has %d elements, model expects %d"
             (Array.length v) t.cols)
  | Sparse_row (idx, vals) ->
      if Array.length idx <> Array.length vals then
        invalid_arg "Service.submit: sparse row index/value length mismatch";
      let last = ref (-1) in
      Array.iter
        (fun c ->
          if c <= !last || c >= t.cols then
            invalid_arg
              (Printf.sprintf
                 "Service.submit: sparse row columns must be strictly \
                  increasing in [0, %d)"
                 t.cols);
          last := c)
        idx

(* --- weight residency and hot-swap ---------------------------------------- *)

(* Publication is a CAS loop that refuses to go backwards: if a newer
   generation is already live the stale publish is dropped, so
   concurrent swappers (a watcher thread racing a manual swap) always
   leave the latest generation serving. *)
let rec publish t l =
  let cur = Atomic.get t.live in
  match cur with
  | Some c when c.l_generation >= l.l_generation -> ()
  | _ -> if not (Atomic.compare_and_set t.live cur (Some l)) then publish t l

let swap t ?checksum weights =
  if weights.Kf_ml.Algorithm.cols <> t.cols then
    invalid_arg
      (Printf.sprintf "Service.swap: weights have %d cols, %s expects %d"
         weights.Kf_ml.Algorithm.cols t.model t.cols);
  let (module A : Kf_ml.Algorithm.S) = t.algo in
  let l_checksum =
    match checksum with
    | Some c -> c
    | None -> Kf_ml.Algorithm.weights_checksum weights
  in
  let l_generation = Atomic.fetch_and_add t.gen_counter 1 in
  publish t { l_scorer = A.scorer weights; l_generation; l_checksum };
  Atomic.incr t.swaps;
  Kf_obs.Metrics.inc t.metrics.m_swaps;
  Kf_obs.Metrics.set t.metrics.m_generation (float_of_int l_generation);
  l_generation

let unload t =
  match Atomic.exchange t.live None with
  | Some _ ->
      Kf_obs.Metrics.set t.metrics.m_generation 0.0;
      true
  | None -> false

let loaded t = Atomic.get t.live <> None

let live_generation t =
  match Atomic.get t.live with Some l -> Some l.l_generation | None -> None

let live_checksum t =
  match Atomic.get t.live with Some l -> Some l.l_checksum | None -> None

let set_provider t f = t.provider <- Some f

(* The scheduler's read of the weight cell.  An evicted model
   re-materialises through the provider (installed by the registry
   layer), which publishes before the batch runs; the bounded retry
   covers an unload racing the re-publication.  Raising here is
   deliberate: it funnels into [execute]'s retry-then-Failed path, so a
   model with no weights and no provider answers requests [Failed]
   rather than wedging the scheduler. *)
let rec acquire t attempts =
  match Atomic.get t.live with
  | Some l -> l
  | None -> (
      if attempts <= 0 then
        failwith (Printf.sprintf "service %s: weights unavailable" t.model);
      match t.provider with
      | None ->
          failwith
            (Printf.sprintf "service %s: weights evicted and no provider"
               t.model)
      | Some f ->
          f ();
          acquire t (attempts - 1))

(* --- batch assembly ------------------------------------------------------ *)

let densify ~cols idx vals =
  let r = Array.make cols 0.0 in
  Array.iteri (fun k c -> r.(c) <- vals.(k)) idx;
  r

(* A batch of all-sparse rows coalesces into one CSR block (offsets are
   exact concatenation); any dense row in the mix densifies the whole
   block.  Either way the scheduler hands the executor one input. *)
let assemble t batch =
  let all_sparse =
    Array.for_all
      (function { t_row = Sparse_row _; _ } -> true | _ -> false)
      batch
  in
  if all_sparse then begin
    let rows = Array.length batch in
    let row_off = Array.make (rows + 1) 0 in
    Array.iteri
      (fun i tk ->
        match tk.t_row with
        | Sparse_row (idx, _) ->
            row_off.(i + 1) <- row_off.(i) + Array.length idx
        | Dense_row _ -> assert false)
      batch;
    let nnz = row_off.(rows) in
    let values = Array.make nnz 0.0 in
    let col_idx = Array.make nnz 0 in
    Array.iteri
      (fun i tk ->
        match tk.t_row with
        | Sparse_row (idx, vals) ->
            Array.blit idx 0 col_idx row_off.(i) (Array.length idx);
            Array.blit vals 0 values row_off.(i) (Array.length vals)
        | Dense_row _ -> assert false)
      batch;
    Fusion.Executor.Sparse
      (Csr.create ~rows ~cols:t.cols ~values ~col_idx ~row_off)
  end
  else
    Fusion.Executor.Dense
      (Dense.of_arrays
         (Array.map
            (fun tk ->
              match tk.t_row with
              | Dense_row v -> v
              | Sparse_row (idx, vals) -> densify ~cols:t.cols idx vals)
            batch))

(* --- batch execution ------------------------------------------------------ *)

let execute t batch =
  let dispatch_ns = Kf_obs.Clock.now_ns () in
  t.batches <- t.batches + 1;
  Kf_obs.Metrics.inc t.metrics.m_batches;
  Kf_obs.Metrics.observe t.metrics.m_occupancy
    (float_of_int (Array.length batch));
  Kf_obs.Histogram.record t.occupancy_hist (float_of_int (Array.length batch));
  Array.iter
    (fun tk ->
      let wait_us = Kf_obs.Clock.ns_to_us (dispatch_ns - tk.t_enqueue_ns) in
      Kf_obs.Histogram.record t.queue_hist wait_us;
      Kf_obs.Metrics.observe t.metrics.m_queue wait_us)
    batch;
  let input = assemble t batch in
  (* One batched predict through the executor.  The executor's own
     recovery chain (retry -> engine fallback -> sequential reference)
     already absorbs injected faults and unhealthy outputs; a failure
     that still escapes (e.g. the reference output itself is unhealthy)
     gets one whole-batch retry before the requests are answered
     [Failed] — requests are never dropped. *)
  let batch_id = t.batches in
  (* Batch-level spans (serve.batch, the executor's, the pool's) follow
     the sampler too, keyed on the batch's own id — sampling by "does
     the batch carry a sampled request" would keep [1 - (1-r)^size] of
     batches, i.e. most of them at useful occupancies, defeating the
     volume cut.  The xor moves batch ids into a keyspace disjoint from
     request ids so batch k and request k decide independently.
     Per-request spans are emitted outside this scope, so a sampled
     request keeps its full span set either way (its [batch] arg still
     correlates it with the batch when that batch was kept). *)
  let batch_sampled =
    Kf_obs.Trace.sample_rate () >= 1.0
    || Kf_obs.Trace.sampled (batch_id lxor 0x5bd1e995)
  in
  (* The weight cell is read once per attempt, so every row of this
     batch scores against one generation; [gen] remembers which, for
     the tickets.  A swap landing mid-execution affects the *next*
     batch (or this one's retry — still uniformly). *)
  let gen = ref 0 in
  let attempt () =
    let l = acquire t 2 in
    gen := l.l_generation;
    let body () =
      Kf_ml.Algorithm.predict_exec_with l.l_scorer ~engine:t.engine
        ?pool:t.pool t.device input
    in
    if batch_sampled then
      Kf_obs.Trace.with_span "serve.batch"
        ~args:
          [ ("size", string_of_int (Array.length batch));
            ("batch", string_of_int batch_id);
            ("generation", string_of_int l.l_generation) ]
        body
    else
      (* also silences the executor's and pool's per-batch spans *)
      Kf_obs.Trace.with_suppressed body
  in
  let result =
    match attempt () with
    | r -> Ok r
    | exception first -> (
        t.batch_retries <- t.batch_retries + 1;
        Kf_obs.Metrics.inc t.metrics.m_retries;
        Kf_obs.Trace.instant "serve.batch_retry"
          ~args:[ ("cause", Printexc.to_string first) ];
        match attempt () with
        | r -> Ok r
        | exception second -> Error (Printexc.to_string second))
  in
  let done_ns = Kf_obs.Clock.now_ns () in
  let batch_ok = match result with Ok _ -> true | Error _ -> false in
  (* book-keeping happens before the tickets resolve so that a client
     returning from [await] always observes its request in the stats.
     Per-request trace spans are emitted only for sampled tickets (the
     sampler decided at submission), and the args are only formatted
     then — a sprintf per request would otherwise dominate the serving
     path.  Each sampled request contributes two phase spans on top of
     its end-to-end one, so a Chrome timeline separates queue wait from
     execution per request. *)
  let tracing = Kf_obs.Trace.enabled () in
  Array.iter
    (fun tk ->
      let lat_ns = done_ns - tk.t_enqueue_ns in
      let lat_us = Kf_obs.Clock.ns_to_us lat_ns in
      Kf_obs.Histogram.record t.latency_hist lat_us;
      Kf_obs.Metrics.observe t.metrics.m_latency lat_us;
      (match t.slo with
      | Some slo -> Kf_obs.Slo.record slo ~latency_us:lat_us ~ok:batch_ok
      | None -> ());
      if tracing && tk.t_sampled then begin
        let rid = [ ("rid", string_of_int tk.t_id) ] in
        Kf_obs.Trace.complete ~name:"serve.request"
          ~args:(("batch", string_of_int batch_id) :: rid)
          ~ts_ns:tk.t_enqueue_ns ~dur_ns:lat_ns ();
        Kf_obs.Trace.complete ~name:"serve.request.queue" ~args:rid
          ~ts_ns:tk.t_enqueue_ns
          ~dur_ns:(dispatch_ns - tk.t_enqueue_ns) ();
        Kf_obs.Trace.complete ~name:"serve.request.execute" ~args:rid
          ~ts_ns:dispatch_ns ~dur_ns:(done_ns - dispatch_ns) ()
      end)
    batch;
  (match result with
  | Error _ ->
      t.failures <- t.failures + Array.length batch;
      Kf_obs.Metrics.inc ~by:(float_of_int (Array.length batch))
        t.metrics.m_failures
  | Ok (_, ms) -> t.exec_ms <- t.exec_ms +. ms);
  (* wall-clock service time feeds the deadline estimator: simulated
     device milliseconds would under-state what a queued request will
     actually wait through *)
  let wall_us = Kf_obs.Clock.ns_to_us (done_ns - dispatch_ns) in
  t.exec_ewma_us <-
    (if t.exec_ewma_us = 0.0 then wall_us
     else (0.8 *. t.exec_ewma_us) +. (0.2 *. wall_us));
  (* resolve the whole batch under one lock with one broadcast *)
  Mutex.lock t.done_mu;
  (match result with
  | Ok (scores, _) ->
      Array.iteri
        (fun i tk ->
          tk.t_done_ns <- done_ns;
          tk.t_generation <- !gen;
          tk.t_outcome <- Some (Score scores.(i)))
        batch
  | Error msg ->
      Array.iter
        (fun tk ->
          tk.t_done_ns <- done_ns;
          tk.t_generation <- !gen;
          tk.t_outcome <- Some (Failed msg))
        batch);
  Condition.broadcast t.done_cv;
  Mutex.unlock t.done_mu

(* --- scheduler ------------------------------------------------------------ *)

(* The window in force right now; callers hold [t.mu] (the controller
   state is scheduler-written under the same lock). *)
let window_us_locked t =
  match t.ctrl with
  | Some _ -> Controller.window_us t.ctrl_state
  | None -> t.cfg.window_us

let current_window_us t =
  Mutex.lock t.mu;
  let w = window_us_locked t in
  Mutex.unlock t.mu;
  w

(* A batch is ready when it is full, or its oldest request has waited
   out the window, or the service is draining for shutdown.  A fixed
   [window_us = 0] makes the cap 1, so every request is its own batch —
   the unbatched baseline.  (Adaptive keeps the full cap even at window
   0: a backlog that built up while the server was busy still drains in
   one batch.) *)
let batch_ready t =
  t.stopped
  || Queue.length t.queue >= t.cap
  || ((not (Queue.is_empty t.queue))
     && Kf_obs.Clock.now_ns () - (Queue.peek t.queue).t_enqueue_ns
        >= window_us_locked t * 1000)

let scheduler_loop t =
  let rec loop () =
    Mutex.lock t.mu;
    while not (batch_ready t) do
      (* about to sleep on a partial batch under a positive window: only
         the timer can notice the window expire, so make sure it is
         ticking (it parks itself whenever it has no such job) *)
      if
        (not t.timer_armed)
        && (not (Queue.is_empty t.queue))
        && window_us_locked t > 0
      then begin
        t.timer_armed <- true;
        Condition.signal t.timer_cv
      end;
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu (* stopped and drained *)
    else begin
      let n = Stdlib.min t.cap (Queue.length t.queue) in
      let batch = Array.init n (fun _ -> Queue.pop t.queue) in
      (* feed the controller what this dispatch looked like, while the
         lock still covers the queue length it observes *)
      (match t.ctrl with
      | Some p ->
          t.ctrl_state <-
            Controller.observe p t.ctrl_state
              { Controller.batch = n; queued = Queue.length t.queue };
          Kf_obs.Metrics.set t.metrics.m_window
            (float_of_int (Controller.window_us t.ctrl_state))
      | None -> ());
      Kf_obs.Metrics.set t.metrics.m_queue_depth
        (float_of_int (Queue.length t.queue));
      Mutex.unlock t.mu;
      execute t batch;
      loop ()
    end
  in
  loop ()

(* The timer only matters for a partial batch whose producers have gone
   quiet: nobody else will wake the scheduler to notice the window
   expired.  While that job exists it ticks at a fraction of the
   current window (bounded below by what [sleepf] can resolve); the
   rest of the time it parks on [timer_cv] and costs nothing — a
   free-running heartbeat steals masterlock handoffs from the
   scheduler's domain and shows up directly as single-client
   throughput.  The scheduler re-arms it whenever it is about to wait
   on a partial batch under a positive window (the only state that
   needs an expiry wake); a few grace ticks of hysteresis keep it from
   park/unpark churn between back-to-back batches. *)
let timer_park_after_ticks = 8

let timer_loop t =
  Mutex.lock t.mu;
  let idle = ref 0 in
  while not t.stopped do
    let w = window_us_locked t in
    if w > 0 && not (Queue.is_empty t.queue) then begin
      idle := 0;
      Condition.signal t.nonempty
    end
    else incr idle;
    if w = 0 || !idle > timer_park_after_ticks then begin
      t.timer_armed <- false;
      idle := 0;
      Condition.wait t.timer_cv t.mu
      (* woken armed by the scheduler, or by shutdown *)
    end
    else begin
      Mutex.unlock t.mu;
      Unix.sleepf (Float.max 20e-6 (float_of_int w *. 1e-6 /. 4.0));
      Mutex.lock t.mu
    end
  done;
  Mutex.unlock t.mu

let run_scheduler t =
  (* the timer is a thread inside the scheduler domain: it only runs
     while the scheduler blocks (condvar wait or executor call), which
     is exactly when it is needed *)
  if (not t.cfg.adaptive) && t.cfg.window_us = 0 then scheduler_loop t
  else begin
    let timer = Thread.create timer_loop t in
    scheduler_loop t;
    Thread.join timer
  end

(* --- public API ----------------------------------------------------------- *)

let create ?(engine = Fusion.Executor.Fused) ?pool ?config ?(start = true)
    ?model ?slo device ~algo ~weights () =
  let cfg = Option.value config ~default:default_config in
  if cfg.window_us < 0 then
    invalid_arg "Service.create: window_us must be >= 0";
  if cfg.window_cap_us < 0 then
    invalid_arg "Service.create: window_cap_us must be >= 0";
  if cfg.max_batch < 1 then invalid_arg "Service.create: max_batch must be >= 1";
  if cfg.queue_depth < 1 then
    invalid_arg "Service.create: queue_depth must be >= 1";
  let (module A : Kf_ml.Algorithm.S) = algo in
  let model = match model with Some m -> m | None -> A.name in
  let metrics = make_metrics ~model in
  let checksum = Kf_ml.Algorithm.weights_checksum weights in
  let t =
    {
      device;
      engine;
      pool;
      algo;
      cols = weights.Kf_ml.Algorithm.cols;
      model;
      slo;
      metrics;
      cfg;
      cap =
        (if cfg.adaptive then cfg.max_batch
         else if cfg.window_us = 0 then 1
         else cfg.max_batch);
      ctrl =
        (if cfg.adaptive then
           Some
             (Controller.default_params ~cap_us:cfg.window_cap_us
                ~max_batch:cfg.max_batch ())
         else None);
      live =
        Atomic.make
          (Some
             {
               l_scorer = A.scorer weights;
               l_generation = 1;
               l_checksum = checksum;
             });
      gen_counter = Atomic.make 2;
      provider = None;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      timer_cv = Condition.create ();
      timer_armed = false;
      done_mu = Mutex.create ();
      done_cv = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      scheduler = None;
      ctrl_state = Controller.initial;
      exec_ewma_us = 0.0;
      accepted = 0;
      shed = 0;
      deadline_shed_n = 0;
      batches = 0;
      failures = 0;
      batch_retries = 0;
      swaps = Atomic.make 0;
      exec_ms = 0.0;
      queue_hist = Kf_obs.Histogram.create ();
      latency_hist = Kf_obs.Histogram.create ();
      occupancy_hist = Kf_obs.Histogram.create ();
    }
  in
  Kf_obs.Metrics.set metrics.m_generation 1.0;
  Kf_obs.Metrics.set metrics.m_window
    (float_of_int (if cfg.adaptive then 0 else cfg.window_us));
  if start then t.scheduler <- Some (Domain.spawn (fun () -> run_scheduler t));
  t

let start t =
  Mutex.lock t.mu;
  let must_spawn = t.scheduler = None && not t.stopped in
  Mutex.unlock t.mu;
  if must_spawn then
    t.scheduler <- Some (Domain.spawn (fun () -> run_scheduler t))

let config t = t.cfg

(* Estimated completion time for a request admitted now: the window it
   may wait plus the batches queued ahead of it, each at the EWMA
   service time.  Deliberately coarse — the estimator only has to be
   right about *order of magnitude* for the shed decision, and
   {!Kf_obs.Slo.deadline_shed} additionally requires the error budget
   to be nearly spent before acting on it. *)
let estimated_us_locked t =
  let batches_ahead = (Queue.length t.queue / t.cap) + 1 in
  float_of_int (window_us_locked t)
  +. (float_of_int batches_ahead *. t.exec_ewma_us)

let submit t row =
  validate_row t row;
  let submit_ns = Kf_obs.Clock.now_ns () in
  Mutex.lock t.mu;
  if t.stopped then begin
    Mutex.unlock t.mu;
    invalid_arg "Service.submit: service is shut down"
  end
  else if Queue.length t.queue >= t.cfg.queue_depth then begin
    t.shed <- t.shed + 1;
    Mutex.unlock t.mu;
    Kf_obs.Metrics.inc t.metrics.m_shed;
    None
  end
  else if
    t.cfg.deadline_shed
    && (match t.slo with
       | Some slo ->
           Kf_obs.Slo.deadline_shed slo ~estimated_us:(estimated_us_locked t)
       | None -> false)
  then begin
    (* deadline sheds count into [shed] too: to the client (and the
       driver's conservation checks) both are the same fail-fast [None] *)
    t.shed <- t.shed + 1;
    t.deadline_shed_n <- t.deadline_shed_n + 1;
    Mutex.unlock t.mu;
    Kf_obs.Metrics.inc t.metrics.m_shed;
    Kf_obs.Metrics.inc t.metrics.m_deadline_shed;
    None
  end
  else begin
    let was_empty = Queue.is_empty t.queue in
    let id = Atomic.fetch_and_add next_request_id 1 in
    let sampled = Kf_obs.Trace.enabled () && Kf_obs.Trace.sampled id in
    let tk =
      {
        t_id = id;
        t_sampled = sampled;
        t_row = row;
        t_enqueue_ns = Kf_obs.Clock.now_ns ();
        t_outcome = None;
        t_done_ns = 0;
        t_generation = 0;
        t_done_mu = t.done_mu;
        t_done_cv = t.done_cv;
      }
    in
    Queue.add tk t.queue;
    t.accepted <- t.accepted + 1;
    (* wake the scheduler only when this submission changes what it
       should do: the queue just became non-empty, or it reached the
       batch cap *)
    if was_empty || Queue.length t.queue >= t.cap then
      Condition.signal t.nonempty;
    Mutex.unlock t.mu;
    Kf_obs.Metrics.inc t.metrics.m_requests;
    if sampled then
      Kf_obs.Trace.complete ~name:"serve.request.submit"
        ~args:[ ("rid", string_of_int id) ]
        ~ts_ns:submit_ns
        ~dur_ns:(tk.t_enqueue_ns - submit_ns)
        ();
    Some tk
  end

let await tk =
  Mutex.lock tk.t_done_mu;
  while tk.t_outcome = None do
    Condition.wait tk.t_done_cv tk.t_done_mu
  done;
  let outcome = Option.get tk.t_outcome in
  Mutex.unlock tk.t_done_mu;
  (* resolve phase: batch completion to client wake-up *)
  if tk.t_sampled && Kf_obs.Trace.enabled () then
    Kf_obs.Trace.complete ~name:"serve.request.resolve"
      ~args:[ ("rid", string_of_int tk.t_id) ]
      ~ts_ns:tk.t_done_ns
      ~dur_ns:(Kf_obs.Clock.now_ns () - tk.t_done_ns)
      ();
  outcome

let latency_ns tk =
  match tk.t_outcome with
  | None -> invalid_arg "Service.latency_ns: ticket not resolved yet"
  | Some _ -> tk.t_done_ns - tk.t_enqueue_ns

let generation tk =
  match tk.t_outcome with
  | None -> invalid_arg "Service.generation: ticket not resolved yet"
  | Some _ -> tk.t_generation

let shutdown t =
  Mutex.lock t.mu;
  t.stopped <- true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.timer_cv;
  Mutex.unlock t.mu;
  match t.scheduler with
  | Some d ->
      Domain.join d;
      t.scheduler <- None
  | None ->
      (* never started: drain synchronously so no ticket is lost *)
      scheduler_loop t

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      accepted = t.accepted;
      shed = t.shed;
      deadline_shed = t.deadline_shed_n;
      batches = t.batches;
      failures = t.failures;
      batch_retries = t.batch_retries;
      swaps = Atomic.get t.swaps;
      exec_ms = t.exec_ms;
      queue_us = Kf_obs.Histogram.copy t.queue_hist;
      latency_us = Kf_obs.Histogram.copy t.latency_hist;
      occupancy = Kf_obs.Histogram.copy t.occupancy_hist;
    }
  in
  Mutex.unlock t.mu;
  s

let stats_json (s : stats) =
  Kf_obs.Json.Obj
    [
      ("requests", Kf_obs.Json.Int s.accepted);
      ("shed", Kf_obs.Json.Int s.shed);
      ("deadline_shed", Kf_obs.Json.Int s.deadline_shed);
      ("batches", Kf_obs.Json.Int s.batches);
      ("failures", Kf_obs.Json.Int s.failures);
      ("batch_retries", Kf_obs.Json.Int s.batch_retries);
      ("swaps", Kf_obs.Json.Int s.swaps);
      ("exec_ms", Kf_obs.Json.Float s.exec_ms);
      ("queue_us", Kf_obs.Histogram.summary_json s.queue_us);
      ("latency_us", Kf_obs.Histogram.summary_json s.latency_us);
      ("occupancy", Kf_obs.Histogram.summary_json s.occupancy);
    ]

let request_id tk = tk.t_id

let model t = t.model

let cols t = t.cols

let slo t = t.slo

(* One self-describing JSON view of the live service: the stats
   snapshot (histograms summarised through the quantile API — p50, p95,
   p99 — never raw bucket dumps), the model label, the window in force,
   the live generation and the SLO state when one is attached.
   `kf serve --json` embeds this under "service". *)
let snapshot t =
  let s = stats t in
  let base =
    match stats_json s with
    | Kf_obs.Json.Obj fields -> fields
    | _ -> assert false
  in
  Kf_obs.Json.Obj
    (("model", Kf_obs.Json.Str t.model)
     :: ("window_us", Kf_obs.Json.Int (current_window_us t))
     :: ( "generation",
          Kf_obs.Json.Int
            (match live_generation t with Some g -> g | None -> 0) )
     :: base
    @
    match t.slo with
    | Some slo -> [ ("slo", Kf_obs.Slo.to_json slo) ]
    | None -> [])
