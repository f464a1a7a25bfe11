type shard = {
  part : Wire.part;
  mode : Netmodel.mode;
  block_cols : int;
  touched : int array;  (** touched column-block ids, ascending *)
}

(* Which column blocks does this shard write in X^T p?  Exactly the
   blocks its column indices fall in — dense slices touch everything. *)
let touched_blocks ~block_cols part =
  match part with
  | Wire.Dense_part x ->
      let nb = (x.Matrix.Dense.cols + block_cols - 1) / block_cols in
      Array.init nb (fun b -> b)
  | Wire.Csr_part x ->
      let nb = (x.Matrix.Csr.cols + block_cols - 1) / block_cols in
      let seen = Bytes.make nb '\000' in
      Array.iter
        (fun c -> Bytes.unsafe_set seen (c / block_cols) '\001')
        x.Matrix.Csr.col_idx;
      let ids = ref [] in
      for b = nb - 1 downto 0 do
        if Bytes.get seen b = '\001' then ids := b :: !ids
      done;
      Array.of_list !ids

let cols_of = function
  | Wire.Csr_part x -> x.Matrix.Csr.cols
  | Wire.Dense_part x -> x.Matrix.Dense.cols

(* The raw per-shard computations: plain sequential reference BLAS, no
   alpha/beta (the coordinator applies the epilogue once, so partial
   sums associate the same way regardless of worker count). *)

let compute_pattern sh y v =
  let p =
    match sh.part with
    | Wire.Csr_part x -> Matrix.Blas.csrmv x y
    | Wire.Dense_part x -> Matrix.Blas.gemv x y
  in
  (match v with
  | None -> ()
  | Some v ->
      if Array.length v <> Array.length p then
        invalid_arg "dist worker: v slice length mismatch";
      for i = 0 to Array.length p - 1 do
        p.(i) <- p.(i) *. v.(i)
      done);
  match sh.part with
  | Wire.Csr_part x -> Matrix.Blas.csrmv_t x p
  | Wire.Dense_part x -> Matrix.Blas.gemv_t x p

let compute_xt_y sh y =
  match sh.part with
  | Wire.Csr_part x -> Matrix.Blas.csrmv_t x y
  | Wire.Dense_part x -> Matrix.Blas.gemv_t x y

let compute_x_y sh y =
  match sh.part with
  | Wire.Csr_part x -> Matrix.Blas.csrmv x y
  | Wire.Dense_part x -> Matrix.Blas.gemv x y

(* Package a dense partial according to the shard's allreduce mode:
   1D ships the whole vector, 1.5D only the touched blocks. *)
let reduce_reply sh w ~compute_ns =
  match sh.mode with
  | Netmodel.One_d -> Wire.Partial { w; compute_ns }
  | Netmodel.One_five_d ->
      let cols = cols_of sh.part in
      let bc = sh.block_cols in
      let total =
        Array.fold_left
          (fun acc b -> acc + (min cols ((b + 1) * bc) - (b * bc)))
          0 sh.touched
      in
      let values = Array.make total 0.0 in
      let pos = ref 0 in
      Array.iter
        (fun b ->
          let lo = b * bc in
          let width = min cols ((b + 1) * bc) - lo in
          Array.blit w lo values !pos width;
          pos := !pos + width)
        sh.touched;
      Wire.Blocks { cols; ids = sh.touched; values; compute_ns }

let serve fd =
  let shards : (int, shard) Hashtbl.t = Hashtbl.create 8 in
  let compute_hist = Kf_obs.Histogram.create () in
  let ops = ref 0 in
  let reply m = ignore (Wire.send fd m) in
  (* A [crash] rule in KF_FAULTS kills this worker exactly where a real
     machine would die: after accepting an op, before replying.  The
     coordinator sees EOF and respawns. *)
  let crash_check () =
    if
      Kf_resil.Fault.with_arm (fun () ->
          Kf_resil.Fault.fire Kf_resil.Fault.Crash ~point:"dist.worker.op")
    then exit 3
  in
  let shard_for mid =
    match Hashtbl.find_opt shards mid with
    | Some sh -> sh
    | None -> failwith (Printf.sprintf "dist worker: unknown shard %d" mid)
  in
  let timed f =
    let t0 = Kf_obs.Clock.now_ns () in
    let r = f () in
    let dt = Kf_obs.Clock.now_ns () - t0 in
    incr ops;
    Kf_obs.Histogram.record compute_hist (float_of_int dt /. 1e3);
    (r, dt)
  in
  let finished = ref false in
  while not !finished do
    match fst (Wire.recv fd) with
    | Wire.Hello _ | Wire.Partial _ | Wire.Blocks _ | Wire.Rows _
    | Wire.Pong _ | Wire.Stats _ ->
        failwith "dist worker: unexpected coordinator frame"
    | Wire.Shard { mid; mode; block_cols; part } ->
        Hashtbl.replace shards mid
          { part; mode; block_cols; touched = touched_blocks ~block_cols part }
    | Wire.Drop { mid } -> Hashtbl.remove shards mid
    | Wire.Pattern { mid; y; v } ->
        crash_check ();
        let sh = shard_for mid in
        let w, compute_ns = timed (fun () -> compute_pattern sh y v) in
        reply (reduce_reply sh w ~compute_ns)
    | Wire.Xt_y { mid; y } ->
        crash_check ();
        let sh = shard_for mid in
        let w, compute_ns = timed (fun () -> compute_xt_y sh y) in
        reply (reduce_reply sh w ~compute_ns)
    | Wire.X_y { mid; y } ->
        crash_check ();
        let sh = shard_for mid in
        let w, compute_ns = timed (fun () -> compute_x_y sh y) in
        reply (Wire.Rows { w; compute_ns })
    | Wire.Ping { reply_bytes } ->
        reply (Wire.Pong { payload = String.make reply_bytes 'k' })
    | Wire.Stats_req ->
        reply (Wire.Stats { ops = !ops; compute = compute_hist })
    | Wire.Shutdown -> finished := true
  done

let id_var =
  Kf_obs.Env.int ~min:0 "KF_DIST_WORKER"
    ~doc:"Internal: the id the dist coordinator gives each worker."
    ~default:"none"

let maybe_run () =
  match Kf_obs.Env.get id_var with
  | None -> ()
  | Some _ ->
      (* Reclaim stdout for stderr so any stray print in library code
         cannot corrupt the frame stream; keep the socket on a fresh
         descriptor.  stdin and stdout are both ends of the same
         socketpair, so either works for bidirectional I/O. *)
      let sock = Unix.dup Unix.stdin in
      Unix.dup2 Unix.stderr Unix.stdout;
      let status =
        match
          ignore
            (Wire.send sock
               (Wire.Hello { proto = Wire.proto_version; pid = Unix.getpid () }));
          serve sock
        with
        | () -> 0
        | exception Wire.Closed -> 0
        | exception e ->
            Printf.eprintf "kf dist worker: %s\n%!" (Printexc.to_string e);
            1
      in
      exit status
