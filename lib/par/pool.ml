(* Domain pool built directly on Domain + Mutex + Condition (the switch
   has no domainslib).  Workers park on [work_ready]; a job submission
   bumps [generation], installs the closure, and broadcasts; the caller
   doubles as worker 0 so a pool of size [s] spawns only [s - 1]
   domains.  The pool holds one job at a time: [submit] is held from
   installing a job to collecting its workers, so a second submitting
   domain waits instead of overwriting [job] and [pending]. *)

type t = {
  size : int;
  submit : Mutex.t;
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;
  mutable generation : int;
  mutable pending : int;  (* spawned workers still inside the current job *)
  mutable failure : exn option;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  is_default : bool;
}

let max_size = 128

let domains_var =
  Kf_obs.Env.int ~min:1 "KF_DOMAINS" ~doc:"Host-engine pool size."
    ~default:"the recommended domain count"

let default_size () =
  let n =
    match Kf_obs.Env.get domains_var with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  Stdlib.min max_size (Stdlib.max 1 n)

let record_failure t exn =
  Mutex.lock t.m;
  if t.failure = None then t.failure <- Some exn;
  Mutex.unlock t.m

let worker_loop t wid =
  (* Publish this worker's id for per-domain observability slots: when a
     Host_stats sink is installed, recording functions credit work to
     the slot of the calling domain. *)
  Domain.DLS.set Kf_obs.Host_stats.worker_slot wid;
  let last_seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while t.generation = !last_seen && not t.stopping do
      Condition.wait t.work_ready t.m
    done;
    if t.stopping then begin
      Mutex.unlock t.m;
      running := false
    end
    else begin
      last_seen := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.m;
      (try job wid with exn -> record_failure t exn);
      Mutex.lock t.m;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.work_done;
      Mutex.unlock t.m
    end
  done

let make ~size ~is_default =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    {
      size;
      submit = Mutex.create ();
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      pending = 0;
      failure = None;
      stopping = false;
      domains = [];
      is_default;
    }
  in
  t.domains <-
    List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let create ?size () =
  let size = match size with Some s -> s | None -> default_size () in
  make ~size ~is_default:false

let size t = t.size

(* Read without a lock once set; the first callers create it under
   [global_lock], re-checking inside, so domains that race to the first
   call share one pool (the default pool is never shut down, so a
   second one's workers would never be joined). *)
let global = Atomic.make None

let global_lock = Mutex.create ()

let default () =
  match Atomic.get global with
  | Some t -> t
  | None ->
      Mutex.protect global_lock (fun () ->
          match Atomic.get global with
          | Some t -> t
          | None ->
              let t = make ~size:(default_size ()) ~is_default:true in
              Atomic.set global (Some t);
              t)

let shutdown t =
  if t.is_default then invalid_arg "Pool.shutdown: cannot shut down the default pool";
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

let run_workers_plain t f =
  if t.size = 1 then f 0
  else begin
    Mutex.lock t.m;
    t.job <- Some f;
    t.generation <- t.generation + 1;
    t.pending <- t.size - 1;
    t.failure <- None;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    (try f 0 with exn -> record_failure t exn);
    Mutex.lock t.m;
    while t.pending > 0 do
      Condition.wait t.work_done t.m
    done;
    let failure = t.failure in
    t.job <- None;
    t.failure <- None;
    Mutex.unlock t.m;
    match failure with None -> () | Some exn -> raise exn
  end

(* Deterministic domain-crash injection: decided on the coordinator at
   submission time (workers never consult the fault engine), the victim
   raises at closure entry and the failure rides the pool's normal
   record-and-reraise path — the same shape a real worker death would
   take.  Only fires inside an armed recovery scope. *)
let maybe_crash t f =
  if Kf_resil.Fault.fire Kf_resil.Fault.Crash ~point:"pool.job" then begin
    let victim = Kf_resil.Fault.injected_total () mod t.size in
    fun wid ->
      if wid = victim then
        raise
          (Kf_resil.Fault.Injected
             { point = "pool.job"; kind = Kf_resil.Fault.Crash })
      else f wid
  end
  else f

(* Observability wrapper: with no Host_stats sink installed and tracing
   off this is one flag check per job on top of [run_workers_plain];
   otherwise each worker times its own closure (one clock pair per
   worker per job — far below kernel granularity) and the coordinator
   derives per-worker idle time from the job's wall time. *)
let run_job t f =
  let f = if Kf_resil.Fault.active () then maybe_crash t f else f in
  let profiling = Kf_obs.Host_stats.profiling () in
  let tracing = Kf_obs.Trace.emitting () in
  if not (profiling || tracing) then run_workers_plain t f
  else begin
    let busy = Array.make t.size 0 in
    let wrapped wid =
      let t0 = Kf_obs.Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Kf_obs.Clock.now_ns () - t0 in
          busy.(wid) <- dt;
          if tracing then
            Kf_obs.Trace.complete ~name:"pool.job"
              ~args:[ ("wid", string_of_int wid) ]
              ~ts_ns:t0 ~dur_ns:dt ())
        (fun () -> f wid)
    in
    let t0 = Kf_obs.Clock.now_ns () in
    run_workers_plain t wrapped;
    if profiling then
      Kf_obs.Host_stats.record_job
        ~wall_ns:(Kf_obs.Clock.now_ns () - t0)
        ~busy_ns:busy
  end

(* A pool of one runs the job inline and takes no lock. *)
let run_workers t f =
  if t.size = 1 then run_job t f
  else Mutex.protect t.submit (fun () -> run_job t f)

let map_workers t f =
  let out = Array.make t.size None in
  run_workers t (fun wid -> out.(wid) <- Some (f wid));
  Array.map Option.get out

(* Below this many iterations the broadcast/join handshake costs more
   than the loop body saves; run inline instead. *)
let sequential_cutoff = 256

let parallel_for t ?chunk ~lo ~hi body =
  let n = hi - lo in
  (* An explicit [chunk] signals a heavy body: skip the small-range
     cutoff, which only guards against handshake overhead on cheap
     per-element loops. *)
  if n <= 0 then ()
  else if t.size = 1 || (chunk = None && n < sequential_cutoff) then body lo hi
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Pool.parallel_for: chunk must be >= 1"
      | None -> Stdlib.max 1 (n / (t.size * 4))
    in
    let next = Atomic.make lo in
    run_workers t (fun _wid ->
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add next chunk in
          if start >= hi then continue := false
          else body start (Stdlib.min hi (start + chunk))
        done)
  end

let reduce t ~merge parts =
  let n = Array.length parts in
  if n = 0 then invalid_arg "Pool.reduce: empty array";
  (* stride doubles each round: pairs (i, i+stride) merge in parallel,
     mirroring the log-depth inter-block sweep. *)
  let stride = ref 1 in
  while !stride < n do
    let s = !stride in
    let pairs = ref [] in
    let i = ref 0 in
    while !i + s < n do
      pairs := (!i, !i + s) :: !pairs;
      i := !i + (2 * s)
    done;
    (match !pairs with
    | [] -> ()
    | ps ->
        (* Counted on the coordinator: Host_stats merge tallies are
           single-writer by contract. *)
        if Kf_obs.Host_stats.profiling () then begin
          Kf_obs.Host_stats.record_merge_pass ();
          List.iter (fun _ -> Kf_obs.Host_stats.record_merge_op ()) ps
        end;
        (match ps with
        | [ (d, sr) ] -> merge ~dst:parts.(d) ~src:parts.(sr)
        | ps ->
            let pairs = Array.of_list ps in
            parallel_for t ~chunk:1 ~lo:0 ~hi:(Array.length pairs)
              (fun a b ->
                for k = a to b - 1 do
                  let d, sr = pairs.(k) in
                  merge ~dst:parts.(d) ~src:parts.(sr)
                done)));
    stride := 2 * s
  done;
  parts.(0)
