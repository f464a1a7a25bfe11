let log_src = Logs.Src.create "kf_dist.cluster" ~doc:"dist coordinator"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Unavailable of string

let unavailable fmt = Printf.ksprintf (fun s -> raise (Unavailable s)) fmt

let ops_counter = Kf_obs.Counter.make "dist.ops"

let respawn_counter = Kf_obs.Counter.make "dist.respawns"

(* Registry cells are fetched per use (name + labels lookup) rather than
   cached, so clusters stay correct across [Metrics.reset] in tests. *)
let m_sent k =
  Kf_obs.Metrics.counter "kf_dist_bytes_sent"
    ~help:"Bytes sent to dist workers"
    ~labels:[ ("worker", string_of_int k) ]

let m_recv k =
  Kf_obs.Metrics.counter "kf_dist_bytes_received"
    ~help:"Bytes received from dist workers"
    ~labels:[ ("worker", string_of_int k) ]

let m_compute k =
  Kf_obs.Metrics.histogram "kf_dist_worker_compute_us"
    ~help:"Per-op shard compute time reported by each worker"
    ~labels:[ ("worker", string_of_int k) ]

let m_allreduce () =
  Kf_obs.Metrics.histogram "kf_dist_allreduce_us"
    ~help:"Gather-and-reduce time per distributed op"

let m_imbalance () =
  Kf_obs.Metrics.gauge "kf_dist_shard_imbalance"
    ~help:"Max over mean shard weight of the current shard map"

let m_respawns () =
  Kf_obs.Metrics.counter "kf_dist_respawns"
    ~help:"Workers respawned after death"

type worker = {
  wk_id : int;
  mutable wk_pid : int;
  mutable wk_fd : Unix.file_descr;
  wk_loaded : (int, unit) Hashtbl.t;  (* shard mids this process holds *)
}

type src = Sp of Matrix.Csr.t | Dn of Matrix.Dense.t

type shard = {
  sh_mid : int;
  sh_src : src;
  sh_bounds : int array;
  sh_mode : Netmodel.mode;
  sh_block_cols : int;
  sh_weights : int array;
  sh_replicated : int;
  sh_bytes_1d : int;
  sh_bytes_15d : int;
}

type t = {
  workers : worker array;
  mutable net : Netmodel.t;
  mutable shards : shard list;  (* MRU first, bounded *)
  mutable next_mid : int;
  mutable ops : int;
  mutable respawns : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable last_mode : Netmodel.mode option;
  mutable alive : bool;
}

let max_cached_shards = 4

let max_attempts = 5

let size t = Array.length t.workers

(* --- spawning ----------------------------------------------------------- *)

let workers_var =
  Kf_obs.Env.int ~min:1 ~max:64 "KF_WORKERS"
    ~doc:"Worker-process count of the dist engine."
    ~default:"min(8, the recommended domain count)"

let default_size () =
  match Kf_obs.Env.get workers_var with
  | Some n -> n
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

let child_env ~id ~clear_faults =
  let set var = Kf_obs.Env.name var ^ "=" in
  let keep s =
    (not (String.starts_with ~prefix:(set Worker.id_var) s))
    && not
         (clear_faults
         && String.starts_with ~prefix:(set Kf_resil.Fault.spec_var) s)
  in
  Array.of_list
    ((set Worker.id_var ^ string_of_int id)
    :: List.filter keep (Array.to_list (Unix.environment ())))

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* Workers are re-execs of this very binary: [Worker.maybe_run] takes
   over before any CLI or test-harness code touches argv.  The
   socketpair end becomes the child's stdin and stdout. *)
let spawn ~id ~clear_faults =
  let coord, child =
    try Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
    with Unix.Unix_error (e, _, _) ->
      unavailable "socketpair failed: %s" (Unix.error_message e)
  in
  Unix.set_close_on_exec coord;
  let pid =
    try
      Unix.create_process_env Sys.executable_name
        [| Sys.executable_name |]
        (child_env ~id ~clear_faults)
        child child Unix.stderr
    with Unix.Unix_error (e, _, _) ->
      (try Unix.close coord with Unix.Unix_error _ -> ());
      (try Unix.close child with Unix.Unix_error _ -> ());
      unavailable "cannot spawn worker %d (%s): %s" id Sys.executable_name
        (Unix.error_message e)
  in
  (try Unix.close child with Unix.Unix_error _ -> ());
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        (try Unix.close coord with Unix.Unix_error _ -> ());
        kill_and_reap pid;
        raise (Unavailable s))
      fmt
  in
  (* Handshake under a timeout: an executable that never calls
     [Worker.maybe_run] would otherwise hang the coordinator. *)
  (try Unix.setsockopt_float coord Unix.SO_RCVTIMEO 60.0
   with Unix.Unix_error _ -> ());
  match Wire.recv_handshake coord with
  | Wire.Hello { proto; _ }, _ when proto = Wire.proto_version ->
      (try Unix.setsockopt_float coord Unix.SO_RCVTIMEO 0.0
       with Unix.Unix_error _ -> ());
      { wk_id = id; wk_pid = pid; wk_fd = coord; wk_loaded = Hashtbl.create 4 }
  | Wire.Hello { proto; _ }, _ ->
      fail "worker %d speaks protocol %d (this build speaks %d)" id proto
        Wire.proto_version
  | _ -> fail "worker %d sent a non-handshake first frame" id
  | exception Wire.Closed -> fail "worker %d died before handshaking" id
  | exception Wire.Corrupt s -> fail "worker %d handshake: %s" id s
  | exception Unix.Unix_error (e, _, _) ->
      fail "worker %d handshake: %s" id (Unix.error_message e)

let create ?workers () =
  let workers =
    match workers with Some w -> w | None -> default_size ()
  in
  if workers < 1 then invalid_arg "Cluster.create: workers must be >= 1";
  (* Writes to a dead worker's socket must surface as EPIPE, not kill
     the coordinator. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let spawned = ref [] in
  (try
     for id = 0 to workers - 1 do
       spawned := spawn ~id ~clear_faults:false :: !spawned
     done
   with e ->
     List.iter
       (fun wk ->
         (try Unix.close wk.wk_fd with Unix.Unix_error _ -> ());
         kill_and_reap wk.wk_pid)
       !spawned;
     raise e);
  {
    workers = Array.of_list (List.rev !spawned);
    net = Netmodel.of_env ();
    shards = [];
    next_mid = 0;
    ops = 0;
    respawns = 0;
    bytes_sent = 0;
    bytes_received = 0;
    last_mode = None;
    alive = true;
  }

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun wk ->
        (try ignore (Wire.send wk.wk_fd Wire.Shutdown)
         with Unix.Unix_error _ -> ());
        (try Unix.close wk.wk_fd with Unix.Unix_error _ -> ());
        reap wk.wk_pid)
      t.workers
  end

let shared_clusters : (int, t) Hashtbl.t = Hashtbl.create 4

let cleanup_registered = ref false

let shared ~workers =
  match Hashtbl.find_opt shared_clusters workers with
  | Some t when t.alive -> t
  | _ ->
      let t = create ~workers () in
      if not !cleanup_registered then begin
        cleanup_registered := true;
        at_exit (fun () ->
            Hashtbl.iter (fun _ t -> try shutdown t with _ -> ()) shared_clusters)
      end;
      Hashtbl.replace shared_clusters workers t;
      t

let default () = shared ~workers:(default_size ())

(* --- sharding ----------------------------------------------------------- *)

let mode_var =
  Kf_obs.Env.enum ~all:[ Netmodel.One_d; Netmodel.One_five_d ]
    ~to_string:Netmodel.mode_name ~of_string:Netmodel.mode_of_string
    "KF_DIST_MODE" ~doc:"Force the dist allreduce layout."
    ~default:"chosen per op by the network model"

(* Read at every op, so a harness can switch layouts mid-process. *)
let forced_mode () = Kf_obs.Env.get mode_var

let src_cols = function Sp x -> x.Matrix.Csr.cols | Dn x -> x.Matrix.Dense.cols

let src_rows = function Sp x -> x.Matrix.Csr.rows | Dn x -> x.Matrix.Dense.rows

let src_matches sh src =
  match (sh.sh_src, src) with
  | Sp a, Sp b -> a.Matrix.Csr.values == b.Matrix.Csr.values
  | Dn a, Dn b -> a.Matrix.Dense.data == b.Matrix.Dense.data
  | _ -> false

let dense_slice x lo hi =
  Matrix.Dense.init (hi - lo) x.Matrix.Dense.cols (fun i j ->
      Matrix.Dense.get x (lo + i) j)

let part_for sh k =
  let lo = sh.sh_bounds.(k) and hi = sh.sh_bounds.(k + 1) in
  match sh.sh_src with
  | Sp x -> Wire.Csr_part (Matrix.Csr.slice_rows x ~row_start:lo ~row_count:(hi - lo))
  | Dn x -> Wire.Dense_part (dense_slice x lo hi)

let block_width ~cols ~block_cols b =
  min cols ((b + 1) * block_cols) - (b * block_cols)

(* Exact per-worker column-block touch map (one O(nnz) pass): the 1.5D
   gather volume, and the replication set (blocks touched by >= 2
   workers, i.e. reduced rather than owner-sent). *)
let analyze_blocks ~workers ~block_cols src bounds =
  let cols = src_cols src in
  let nb = (cols + block_cols - 1) / block_cols in
  match src with
  | Dn _ ->
      let bytes_15d =
        let per_worker = ref 0 in
        for b = 0 to nb - 1 do
          per_worker :=
            !per_worker
            + Netmodel.block_bytes ~width:(block_width ~cols ~block_cols b)
        done;
        workers * !per_worker
      in
      (bytes_15d, if workers > 1 then nb else 0)
  | Sp x ->
      let touchers = Array.make nb 0 in
      let bytes_15d = ref 0 in
      for k = 0 to workers - 1 do
        if nb > 0 then begin
          let seen = Bytes.make nb '\000' in
          for r = bounds.(k) to bounds.(k + 1) - 1 do
            for j = x.Matrix.Csr.row_off.(r) to x.Matrix.Csr.row_off.(r + 1) - 1
            do
              Bytes.unsafe_set seen
                (x.Matrix.Csr.col_idx.(j) / block_cols)
                '\001'
            done
          done;
          for b = 0 to nb - 1 do
            if Bytes.get seen b = '\001' then begin
              touchers.(b) <- touchers.(b) + 1;
              bytes_15d :=
                !bytes_15d
                + Netmodel.block_bytes ~width:(block_width ~cols ~block_cols b)
            end
          done
        end
      done;
      let replicated =
        Array.fold_left (fun acc c -> if c >= 2 then acc + 1 else acc) 0 touchers
      in
      (!bytes_15d, replicated)

let build_shard t src =
  let workers = size t in
  let bounds =
    match src with
    | Sp x -> Par.Partition.by_prefix ~prefix:x.Matrix.Csr.row_off ~parts:workers ()
    | Dn x -> Par.Partition.uniform ~n:x.Matrix.Dense.rows ~parts:workers
  in
  let weights =
    Array.init workers (fun k ->
        match src with
        | Sp x -> x.Matrix.Csr.row_off.(bounds.(k + 1)) - x.Matrix.Csr.row_off.(bounds.(k))
        | Dn x -> (bounds.(k + 1) - bounds.(k)) * x.Matrix.Dense.cols)
  in
  let block_cols = Netmodel.block_cols_of_env () in
  let bytes_15d, replicated = analyze_blocks ~workers ~block_cols src bounds in
  let bytes_1d = Netmodel.bytes_1d ~workers ~cols:(src_cols src) in
  let mode =
    match forced_mode () with
    | Some m -> m
    | None ->
        let m, _, _ =
          Netmodel.choose_mode t.net ~workers ~bytes_1d ~bytes_15d
        in
        m
  in
  let sh =
    {
      sh_mid = t.next_mid;
      sh_src = src;
      sh_bounds = bounds;
      sh_mode = mode;
      sh_block_cols = block_cols;
      sh_weights = weights;
      sh_replicated = replicated;
      sh_bytes_1d = bytes_1d;
      sh_bytes_15d = bytes_15d;
    }
  in
  t.next_mid <- t.next_mid + 1;
  sh

let imbalance_of weights =
  let total = Array.fold_left ( + ) 0 weights in
  let n = Array.length weights in
  if total = 0 || n = 0 then 1.0
  else
    let mean = float_of_int total /. float_of_int n in
    float_of_int (Array.fold_left max 0 weights) /. mean

let drop_everywhere t sh =
  Array.iter
    (fun wk ->
      if Hashtbl.mem wk.wk_loaded sh.sh_mid then begin
        Hashtbl.remove wk.wk_loaded sh.sh_mid;
        try ignore (Wire.send wk.wk_fd (Wire.Drop { mid = sh.sh_mid }))
        with Unix.Unix_error _ | Wire.Closed -> ()
      end)
    t.workers

let shard_for t src =
  let sh =
    match List.partition (fun sh -> src_matches sh src) t.shards with
    | [ sh ], rest ->
        t.shards <- sh :: rest;
        sh
    | _ ->
        let sh = build_shard t src in
        t.shards <- sh :: t.shards;
        (match
           List.filteri (fun i _ -> i >= max_cached_shards) t.shards
         with
        | [] -> ()
        | evicted ->
            t.shards <-
              List.filteri (fun i _ -> i < max_cached_shards) t.shards;
            List.iter (drop_everywhere t) evicted);
        sh
  in
  Kf_obs.Metrics.set (m_imbalance ()) (imbalance_of sh.sh_weights);
  t.last_mode <- Some sh.sh_mode;
  sh

(* --- fault-tolerant delivery ------------------------------------------- *)

let note_sent t wk n =
  t.bytes_sent <- t.bytes_sent + n;
  Kf_obs.Metrics.inc ~by:(float_of_int n) (m_sent wk.wk_id)

let note_recv t wk n =
  t.bytes_received <- t.bytes_received + n;
  Kf_obs.Metrics.inc ~by:(float_of_int n) (m_recv wk.wk_id)

(* Respawned workers run with fault injection cleared — the same
   "retry without injection" contract as the executor's recovery chain,
   and what makes a crash-respawn run converge bit-exactly: the fresh
   process recomputes the identical shard partial. *)
let respawn t wk =
  t.respawns <- t.respawns + 1;
  Kf_obs.Counter.incr respawn_counter;
  Kf_obs.Metrics.inc (m_respawns ());
  Kf_obs.Trace.instant "dist.respawn"
    ~args:[ ("worker", string_of_int wk.wk_id) ];
  Log.warn (fun m -> m "worker %d died; respawning" wk.wk_id);
  (try Unix.close wk.wk_fd with Unix.Unix_error _ -> ());
  kill_and_reap wk.wk_pid;
  let fresh = spawn ~id:wk.wk_id ~clear_faults:true in
  wk.wk_pid <- fresh.wk_pid;
  wk.wk_fd <- fresh.wk_fd;
  Hashtbl.reset wk.wk_loaded

let ensure_loaded t sh wk =
  if not (Hashtbl.mem wk.wk_loaded sh.sh_mid) then begin
    let n =
      Wire.send wk.wk_fd
        (Wire.Shard
           {
             mid = sh.sh_mid;
             mode = sh.sh_mode;
             block_cols = sh.sh_block_cols;
             part = part_for sh wk.wk_id;
           })
    in
    note_sent t wk n;
    Hashtbl.replace wk.wk_loaded sh.sh_mid ()
  end

let rec deliver t sh wk msg attempt =
  try
    ensure_loaded t sh wk;
    note_sent t wk (Wire.send wk.wk_fd msg)
  with Wire.Closed | Unix.Unix_error (_, _, _) ->
    if attempt >= max_attempts then
      unavailable "worker %d keeps dying during delivery" wk.wk_id;
    respawn t wk;
    deliver t sh wk msg (attempt + 1)

let rec collect t sh wk msg attempt =
  match Wire.recv wk.wk_fd with
  | reply, n ->
      note_recv t wk n;
      reply
  | exception (Wire.Closed | Unix.Unix_error (_, _, _)) ->
      if attempt >= max_attempts then
        unavailable "worker %d keeps dying mid-op" wk.wk_id;
      respawn t wk;
      deliver t sh wk msg (attempt + 1);
      collect t sh wk msg (attempt + 1)

(* Scatter to every worker, then gather in worker order — a fixed
   reduction order, so results are independent of reply timing. *)
let run_op t sh ~msg_for ~on_reply =
  if not t.alive then invalid_arg "Cluster: used after shutdown";
  Array.iter (fun wk -> deliver t sh wk (msg_for wk.wk_id) 1) t.workers;
  let t0 = Kf_obs.Clock.now_ns () in
  Array.iter
    (fun wk -> on_reply wk.wk_id (collect t sh wk (msg_for wk.wk_id) 1))
    t.workers;
  let dt_us = float_of_int (Kf_obs.Clock.now_ns () - t0) /. 1e3 in
  Kf_obs.Metrics.observe (m_allreduce ()) dt_us;
  t.ops <- t.ops + 1;
  Kf_obs.Counter.incr ops_counter

let protocol_error what =
  raise (Wire.Corrupt (Printf.sprintf "unexpected worker reply to %s" what))

let note_compute wk_id compute_ns =
  Kf_obs.Metrics.observe (m_compute wk_id) (float_of_int compute_ns /. 1e3)

(* Reduce one worker's partial into [acc] (length cols). *)
let gather_partial sh acc wk_id reply =
  match reply with
  | Wire.Partial { w; compute_ns } ->
      if Array.length w <> Array.length acc then
        raise (Wire.Corrupt "partial length mismatch");
      for i = 0 to Array.length acc - 1 do
        acc.(i) <- acc.(i) +. w.(i)
      done;
      note_compute wk_id compute_ns
  | Wire.Blocks { cols; ids; values; compute_ns } ->
      if cols <> Array.length acc then
        raise (Wire.Corrupt "block partial cols mismatch");
      let bc = sh.sh_block_cols in
      let pos = ref 0 in
      Array.iter
        (fun b ->
          let lo = b * bc in
          let width = block_width ~cols ~block_cols:bc b in
          for i = 0 to width - 1 do
            acc.(lo + i) <- acc.(lo + i) +. values.(!pos + i)
          done;
          pos := !pos + width)
        ids;
      note_compute wk_id compute_ns
  | _ -> protocol_error "allreduce"

(* --- sharded ops -------------------------------------------------------- *)

let slice_for sh v k = Array.sub v sh.sh_bounds.(k) (sh.sh_bounds.(k + 1) - sh.sh_bounds.(k))

let pattern_gen t src ~y ?v ?beta_z ~alpha () =
  let rows = src_rows src and cols = src_cols src in
  if Array.length y <> cols then
    invalid_arg "Cluster.pattern: length y must equal cols";
  (match v with
  | Some v when Array.length v <> rows ->
      invalid_arg "Cluster.pattern: length v must equal rows"
  | _ -> ());
  (match beta_z with
  | Some (_, z) when Array.length z <> cols ->
      invalid_arg "Cluster.pattern: length z must equal cols"
  | _ -> ());
  let sh = shard_for t src in
  let acc = Array.make cols 0.0 in
  run_op t sh
    ~msg_for:(fun k ->
      Wire.Pattern
        { mid = sh.sh_mid; y; v = Option.map (fun v -> slice_for sh v k) v })
    ~on_reply:(gather_partial sh acc);
  let beta, z =
    match beta_z with None -> (None, None) | Some (b, z) -> (Some b, Some z)
  in
  Matrix.Blas.finish_pattern ~alpha ~beta ~z acc

let pattern_sparse t x ~y ?v ?beta_z ~alpha () =
  pattern_gen t (Sp x) ~y ?v ?beta_z ~alpha ()

let pattern_dense t x ~y ?v ?beta_z ~alpha () =
  pattern_gen t (Dn x) ~y ?v ?beta_z ~alpha ()

let xt_y_gen t src ~y ~alpha =
  let rows = src_rows src and cols = src_cols src in
  if Array.length y <> rows then
    invalid_arg "Cluster.xt_y: length y must equal rows";
  let sh = shard_for t src in
  let acc = Array.make cols 0.0 in
  run_op t sh
    ~msg_for:(fun k -> Wire.Xt_y { mid = sh.sh_mid; y = slice_for sh y k })
    ~on_reply:(gather_partial sh acc);
  Matrix.Blas.finish_pattern ~alpha ~beta:None ~z:None acc

let xt_y_sparse t x ~y ~alpha = xt_y_gen t (Sp x) ~y ~alpha

let xt_y_dense t x ~y ~alpha = xt_y_gen t (Dn x) ~y ~alpha

let x_y_gen t src y =
  let rows = src_rows src and cols = src_cols src in
  if Array.length y <> cols then
    invalid_arg "Cluster.x_y: length y must equal cols";
  let sh = shard_for t src in
  let out = Array.make rows 0.0 in
  run_op t sh
    ~msg_for:(fun _ -> Wire.X_y { mid = sh.sh_mid; y })
    ~on_reply:(fun k reply ->
      match reply with
      | Wire.Rows { w; compute_ns } ->
          let lo = sh.sh_bounds.(k) in
          if Array.length w <> sh.sh_bounds.(k + 1) - lo then
            raise (Wire.Corrupt "row slice length mismatch");
          Array.blit w 0 out lo (Array.length w);
          note_compute k compute_ns
      | _ -> protocol_error "row gather");
  out

let x_y_sparse t x y = x_y_gen t (Sp x) y

let x_y_dense t x y = x_y_gen t (Dn x) y

(* --- probe -------------------------------------------------------------- *)

let netmodel t = t.net

(* An RPC against one worker outside any shard (probe, stats pull):
   respawn on death, nothing to reload. *)
let rec plain_rpc t wk msg attempt =
  match
    let n = Wire.send wk.wk_fd msg in
    note_sent t wk n;
    let reply, rn = Wire.recv wk.wk_fd in
    note_recv t wk rn;
    reply
  with
  | reply -> reply
  | exception (Wire.Closed | Unix.Unix_error (_, _, _)) ->
      if attempt >= max_attempts then
        unavailable "worker %d keeps dying during rpc" wk.wk_id;
      respawn t wk;
      plain_rpc t wk msg (attempt + 1)

let calibrate t =
  let wk = t.workers.(0) in
  let round_trip_us bytes =
    let t0 = Kf_obs.Clock.now_ns () in
    (match plain_rpc t wk (Wire.Ping { reply_bytes = bytes }) 1 with
    | Wire.Pong _ -> ()
    | _ -> protocol_error "ping");
    float_of_int (Kf_obs.Clock.now_ns () - t0) /. 1e3
  in
  (* Warm the path, then take the median of small round trips for the
     per-message latency (half an RTT = one message each way). *)
  ignore (round_trip_us 1);
  let small = Array.init 15 (fun _ -> round_trip_us 1) in
  Array.sort compare small;
  let latency_us = max 0.5 (small.(Array.length small / 2) /. 2.0) in
  (* Bandwidth from large round trips: a 4 MiB payload each way. *)
  let blob = 4 * 1024 * 1024 in
  let best_big =
    let best = ref infinity in
    for _ = 1 to 3 do
      best := min !best (round_trip_us blob)
    done;
    !best
  in
  let payload_us = max 1.0 (best_big -. (2.0 *. latency_us)) in
  let gbps = max 0.1 (float_of_int (2 * blob) /. (payload_us *. 1000.0)) in
  let net = { Netmodel.latency_us; gbps } in
  t.net <- net;
  Log.info (fun m ->
      m "calibrated netmodel: %.1f us/msg, %.2f GB/s" latency_us gbps);
  net

(* --- observability ------------------------------------------------------ *)

type stats = {
  st_workers : int;
  st_ops : int;
  st_respawns : int;
  st_bytes_sent : int;
  st_bytes_received : int;
  st_last_mode : string;
  st_imbalance : float;
  st_replicated_blocks : int;
  st_bytes_1d : int;
  st_bytes_15d : int;
}

let stats t =
  let sh = match t.shards with sh :: _ -> Some sh | [] -> None in
  {
    st_workers = size t;
    st_ops = t.ops;
    st_respawns = t.respawns;
    st_bytes_sent = t.bytes_sent;
    st_bytes_received = t.bytes_received;
    st_last_mode =
      (match t.last_mode with Some m -> Netmodel.mode_name m | None -> "-");
    st_imbalance =
      (match sh with Some sh -> imbalance_of sh.sh_weights | None -> 1.0);
    st_replicated_blocks =
      (match sh with Some sh -> sh.sh_replicated | None -> 0);
    st_bytes_1d = (match sh with Some sh -> sh.sh_bytes_1d | None -> 0);
    st_bytes_15d = (match sh with Some sh -> sh.sh_bytes_15d | None -> 0);
  }

let worker_compute t =
  let merged = Kf_obs.Histogram.create () in
  Array.iter
    (fun wk ->
      match plain_rpc t wk Wire.Stats_req 1 with
      | Wire.Stats { compute; _ } -> Kf_obs.Histogram.merge ~into:merged compute
      | _ -> protocol_error "stats pull")
    t.workers;
  merged

let describe t =
  let w = size t in
  Printf.sprintf "dist %s [%d worker%s]"
    (match t.last_mode with Some m -> Netmodel.mode_name m | None -> "?")
    w
    (if w = 1 then "" else "s")
