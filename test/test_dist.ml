(* The sharded multi-process execution tier: wire-format roundtrips,
   the network cost model, differential equivalence against the
   sequential reference BLAS, and crash-respawn recovery.

   Workers are re-execs of this very test binary — [test_main.ml] calls
   [Kf_dist.Worker.maybe_run ()] before Alcotest sees argv. *)
open Matrix
module Wire = Kf_dist.Wire
module Nm = Kf_dist.Netmodel
module Cluster = Kf_dist.Cluster

let dev = Gpu_sim.Device.gtx_titan

let with_cluster workers f =
  let c = Cluster.create ~workers () in
  Fun.protect ~finally:(fun () -> Cluster.shutdown c) (fun () -> f c)

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:""))
    f

(* Bitwise float comparison: the wire format's contract is IEEE-754
   roundtripping, stronger than numeric equality (covers -0.0, nan). *)
let floats_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let checksum = Kf_resil.Ckpt.checksum_floats

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

let case seed ~rows ~cols ~density =
  let rng = Rng.create seed in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density in
  let y = Gen.vector rng cols in
  let v = Gen.vector rng rows in
  let z = Gen.vector rng cols in
  (x, y, v, z)

(* --- wire format -------------------------------------------------------- *)

let test_wire_qcheck =
  QCheck.Test.make ~count:150 ~name:"wire frames roundtrip bit-exactly"
    QCheck.(pair (int_range 0 4) (pair (array float) (option (array float))))
    (fun (pick, (a, v)) ->
      let msg =
        match pick with
        | 0 -> Wire.Pattern { mid = 7; y = a; v }
        | 1 -> Wire.Xt_y { mid = 3; y = a }
        | 2 -> Wire.X_y { mid = 11; y = a }
        | 3 -> Wire.Partial { w = a; compute_ns = 12345 }
        | _ -> Wire.Rows { w = a; compute_ns = 99 }
      in
      match (Wire.decode (Wire.encode msg), msg) with
      | ( Wire.Pattern { mid = m'; y = a'; v = v' },
          Wire.Pattern { mid = m; y; v } ) ->
          m = m'
          && floats_bit_equal a' y
          && (match (v, v') with
             | None, None -> true
             | Some v, Some v' -> floats_bit_equal v' v
             | _ -> false)
      | Wire.Xt_y { mid = m'; y = a' }, Wire.Xt_y { mid = m; y }
      | Wire.X_y { mid = m'; y = a' }, Wire.X_y { mid = m; y } ->
          m = m' && floats_bit_equal a' y
      | ( Wire.Partial { w = w'; compute_ns = n' },
          Wire.Partial { w; compute_ns } )
      | Wire.Rows { w = w'; compute_ns = n' }, Wire.Rows { w; compute_ns } ->
          n' = compute_ns && floats_bit_equal w' w
      | _ -> false)

let test_shard_roundtrip_qcheck =
  QCheck.Test.make ~count:60 ~name:"CSR shards roundtrip bit-exactly"
    QCheck.(triple (int_range 1 40) (int_range 1 30) (int_bound 1000))
    (fun (rows, cols, seed) ->
      let rng = Rng.create (seed + 1) in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density:0.3 in
      let msg =
        Wire.Shard
          { mid = 5; mode = Nm.One_five_d; block_cols = 8; part = Wire.Csr_part x }
      in
      match Wire.decode (Wire.encode msg) with
      | Wire.Shard
          { mid = 5; mode = Nm.One_five_d; block_cols = 8; part = Wire.Csr_part x'
          } ->
          x'.Csr.rows = x.Csr.rows
          && x'.Csr.cols = x.Csr.cols
          && floats_bit_equal x'.Csr.values x.Csr.values
          && x'.Csr.col_idx = x.Csr.col_idx
          && x'.Csr.row_off = x.Csr.row_off
      | _ -> false)

let test_dense_shard_roundtrip () =
  let rng = Rng.create 7 in
  let x = Gen.dense rng ~rows:9 ~cols:5 in
  let msg =
    Wire.Shard
      { mid = 2; mode = Nm.One_d; block_cols = 256; part = Wire.Dense_part x }
  in
  match Wire.decode (Wire.encode msg) with
  | Wire.Shard { part = Wire.Dense_part x'; _ } ->
      Alcotest.(check bool) "dense data bit-exact" true
        (x'.Dense.rows = x.Dense.rows
        && x'.Dense.cols = x.Dense.cols
        && floats_bit_equal x'.Dense.data x.Dense.data)
  | _ -> Alcotest.fail "decoded to a different constructor"

let test_blocks_roundtrip () =
  let msg =
    Wire.Blocks
      {
        cols = 20;
        ids = [| 0; 2; 4 |];
        values = Array.init 18 (fun i -> float_of_int i *. 0.5);
        compute_ns = 777;
      }
  in
  match Wire.decode (Wire.encode msg) with
  | Wire.Blocks { cols; ids; values; compute_ns } ->
      Alcotest.(check int) "cols" 20 cols;
      Alcotest.(check (array int)) "ids" [| 0; 2; 4 |] ids;
      Alcotest.(check int) "compute_ns" 777 compute_ns;
      Alcotest.(check bool) "values bit-exact" true
        (floats_bit_equal values
           (Array.init 18 (fun i -> float_of_int i *. 0.5)))
  | _ -> Alcotest.fail "decoded to a different constructor"

let test_histogram_roundtrip () =
  let h = Kf_obs.Histogram.create () in
  List.iter (Kf_obs.Histogram.record h) [ 3.0; 47.0; 1200.0; 47.0; 0.2 ];
  match Wire.decode (Wire.encode (Wire.Stats { ops = 5; compute = h })) with
  | Wire.Stats { ops; compute } ->
      Alcotest.(check int) "ops" 5 ops;
      Alcotest.(check int) "count preserved" (Kf_obs.Histogram.count h)
        (Kf_obs.Histogram.count compute);
      Alcotest.(check (float 1e-9)) "sum preserved" (Kf_obs.Histogram.sum h)
        (Kf_obs.Histogram.sum compute);
      (* and it still merges — the cross-process histogram use case *)
      let into = Kf_obs.Histogram.create () in
      Kf_obs.Histogram.merge ~into compute;
      Alcotest.(check int) "merge carries the count" 5
        (Kf_obs.Histogram.count into)
  | _ -> Alcotest.fail "decoded to a different constructor"

let expect_corrupt label frame =
  match Wire.decode frame with
  | _ -> Alcotest.fail (label ^ ": expected Corrupt")
  | exception Wire.Corrupt _ -> ()

(* Golden bytes: frames stay byte-identical across codec changes, so a
   coordinator and workers built from different commits still agree. *)
let test_frame_bytes_stable () =
  let frame = Wire.encode (Wire.X_y { mid = 11; y = [| 1.; 2.; 3. |] }) in
  let hex =
    String.concat ""
      (List.init (String.length frame) (fun i ->
           Printf.sprintf "%02x" (Char.code frame.[i])))
  in
  Alcotest.(check int) "frame size" 68 (String.length frame);
  Alcotest.(check string) "frame bytes"
    ("6b662d646973742f31052e0000000003006d69640b0000000000000003010079030000"
   ^ "00000000000000f03f00000000000000400000000000000840f0e50a2fa78a8edc")
    hex;
  Alcotest.(check string) "trailing FNV" "dc8e8aa72f0ae5f0"
    (Printf.sprintf "%016Lx" (String.get_int64_le frame 60))

(* A checksum-valid X_y frame whose 27-byte payload holds a Floats field
   claiming 0xFFFFFFFF elements: a typed error, not a 34 GB array. *)
let test_frame_oversized_count () =
  let payload = "\003\008\000logreg.w\255\255\255\255" ^ String.make 12 '\000' in
  let len = String.length payload in
  let b = Buffer.create 64 in
  Buffer.add_string b "kf-dist/1";
  Buffer.add_char b '\005';
  Buffer.add_int32_le b (Int32.of_int len);
  Buffer.add_string b payload;
  Buffer.add_int64_le b (Kf_resil.Ckpt.fnv1a64 payload ~pos:0 ~len);
  let frame = Buffer.contents b in
  let before = Gc.allocated_bytes () in
  (match Wire.decode frame with
  | _ -> Alcotest.fail "decoded a count the frame cannot back"
  | exception Wire.Corrupt msg ->
      Alcotest.(check bool) ("payload error: " ^ msg) true
        (Astring.String.is_prefix ~affix:"frame payload" msg));
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f bytes" bytes) true
    (bytes < 1e6)

let test_corrupt_frames () =
  let frame = Wire.encode (Wire.Partial { w = [| 1.5; -2.25 |]; compute_ns = 3 }) in
  (* flip one payload byte: the checksum must catch it *)
  let flipped = Bytes.of_string frame in
  let pos = 14 (* first payload byte: magic 9 + tag 1 + len 4 *) in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
  expect_corrupt "payload flip" (Bytes.to_string flipped);
  (* flip a checksum byte *)
  let sumflip = Bytes.of_string frame in
  let last = Bytes.length sumflip - 1 in
  Bytes.set sumflip last (Char.chr (Char.code (Bytes.get sumflip last) lxor 0x01));
  expect_corrupt "checksum flip" (Bytes.to_string sumflip);
  (* truncation and bad magic *)
  expect_corrupt "truncated" (String.sub frame 0 (String.length frame - 1));
  expect_corrupt "short" "kf";
  let badmagic = Bytes.of_string frame in
  Bytes.set badmagic 0 'X';
  expect_corrupt "bad magic" (Bytes.to_string badmagic)

(* --- network cost model ------------------------------------------------- *)

let test_netmodel_xfer () =
  let t = { Nm.latency_us = 10.0; gbps = 1.0 } in
  Alcotest.(check (float 1e-9)) "alpha-beta arithmetic" 25.0
    (Nm.xfer_us t ~msgs:2 ~bytes:5000);
  Alcotest.(check int) "1d volume" (4 * 30 * 8) (Nm.bytes_1d ~workers:4 ~cols:30)

let test_netmodel_choose_mode () =
  let t = Nm.default in
  let m, _, _ = Nm.choose_mode t ~workers:4 ~bytes_1d:100_000 ~bytes_15d:10_000 in
  Alcotest.(check string) "cheaper gather wins" "1.5d" (Nm.mode_name m);
  let m, _, _ = Nm.choose_mode t ~workers:4 ~bytes_1d:10_000 ~bytes_15d:10_000 in
  Alcotest.(check string) "ties go to 1d" "1d" (Nm.mode_name m)

let test_netmodel_touched_blocks () =
  (* B = 10 blocks; one nnz touches exactly one block in expectation *)
  Alcotest.(check (float 1e-9)) "single nnz" 1.0
    (Nm.expected_touched_blocks ~cols:1000 ~nnz_per_worker:1.0 ~block_cols:100);
  let dense_limit =
    Nm.expected_touched_blocks ~cols:1000 ~nnz_per_worker:1e6 ~block_cols:100
  in
  Alcotest.(check bool) "saturates at the block count" true
    (dense_limit > 9.999 && dense_limit <= 10.0);
  let sparse = Nm.bytes_15d_estimate ~workers:4 ~cols:4096 ~nnz:400 ~block_cols:256 in
  let denser = Nm.bytes_15d_estimate ~workers:4 ~cols:4096 ~nnz:40_000 ~block_cols:256 in
  Alcotest.(check bool) "estimate grows with density" true (sparse < denser)

let test_netmodel_recommend () =
  (* compute-bound: cheap messages, expensive sequential compute *)
  let fast = { Nm.latency_us = 0.001; gbps = 100.0 } in
  let w, _ =
    Nm.recommend fast ~max_workers:8 ~cols:100 ~nnz:1000 ~block_cols:256
      ~seq_compute_us:1e6
  in
  Alcotest.(check int) "compute-bound picks max workers" 8 w;
  (* latency-bound: every extra worker costs more than it saves *)
  let slow = { Nm.latency_us = 1e9; gbps = 100.0 } in
  let w, _ =
    Nm.recommend slow ~max_workers:8 ~cols:100 ~nnz:1000 ~block_cols:256
      ~seq_compute_us:10.0
  in
  Alcotest.(check int) "latency-bound picks one worker" 1 w

let test_block_cols_env () =
  Alcotest.(check int) "env override" 64
    (with_env "KF_DIST_BLOCK_COLS" "64" Nm.block_cols_of_env);
  Alcotest.(check int) "unset is 256" 256
    (with_env "KF_DIST_BLOCK_COLS" "" Nm.block_cols_of_env);
  Alcotest.check_raises "garbage is the typed error"
    (Kf_obs.Env.Malformed
       {
         name = "KF_DIST_BLOCK_COLS";
         expected = "an integer >= 1";
         got = {|"not-a-width"|};
       })
    (fun () ->
      ignore (with_env "KF_DIST_BLOCK_COLS" "not-a-width" Nm.block_cols_of_env))

(* --- differential equivalence ------------------------------------------- *)

let test_pattern_differential () =
  let x, y, v, z = case 42 ~rows:150 ~cols:40 ~density:0.2 in
  let expected = Blas.pattern_sparse ~alpha:1.3 x ~v y ~beta:0.7 ~z () in
  List.iter
    (fun workers ->
      with_cluster workers (fun c ->
          let got =
            Cluster.pattern_sparse c x ~y ~v ~beta_z:(0.7, z) ~alpha:1.3 ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "pattern, %d workers, <= 1e-9" workers)
            true
            (max_abs_diff got expected <= 1e-9)))
    [ 1; 2; 4 ]

let test_xt_y_differential () =
  let x, _, v, _ = case 43 ~rows:120 ~cols:35 ~density:0.25 in
  let alpha = 2.5 in
  let expected = Array.map (fun e -> alpha *. e) (Blas.csrmv_t x v) in
  let dense = Csr.to_dense x in
  List.iter
    (fun workers ->
      with_cluster workers (fun c ->
          let sp = Cluster.xt_y_sparse c x ~y:v ~alpha in
          let dn = Cluster.xt_y_dense c dense ~y:v ~alpha in
          Alcotest.(check bool)
            (Printf.sprintf "sparse xt_y, %d workers" workers)
            true
            (max_abs_diff sp expected <= 1e-9);
          Alcotest.(check bool)
            (Printf.sprintf "dense xt_y, %d workers" workers)
            true
            (max_abs_diff dn expected <= 1e-9)))
    [ 1; 2; 4 ]

let test_x_y_differential () =
  let x, y, _, _ = case 44 ~rows:90 ~cols:28 ~density:0.3 in
  let expected = Blas.csrmv x y in
  let dense = Csr.to_dense x in
  List.iter
    (fun workers ->
      with_cluster workers (fun c ->
          (* row-disjoint: each shard's rows are computed by the same
             sequential kernel on the same data, so this one is bit-exact *)
          Alcotest.(check string)
            (Printf.sprintf "sparse x_y bit-exact, %d workers" workers)
            (checksum expected)
            (checksum (Cluster.x_y_sparse c x y));
          Alcotest.(check string)
            (Printf.sprintf "dense x_y bit-exact, %d workers" workers)
            (checksum (Blas.gemv dense y))
            (checksum (Cluster.x_y_dense c dense y))))
    [ 1; 2; 4 ]

let test_15d_mode () =
  let rng = Rng.create 45 in
  (* column-banded: each row shard touches a narrow column band, the
     shape 1.5D exists for *)
  let x = Gen.sparse_banded rng ~rows:200 ~cols:400 ~bandwidth:30 in
  let y = Gen.vector rng 200 in
  let expected = Blas.csrmv_t x y in
  with_env "KF_DIST_BLOCK_COLS" "32" (fun () ->
      let run mode =
        with_env "KF_DIST_MODE" mode (fun () ->
            with_cluster 4 (fun c ->
                let w = Cluster.xt_y_sparse c x ~y ~alpha:1.0 in
                (w, Cluster.stats c)))
      in
      let w15, st15 = run "1.5d" in
      let w1, _ = run "1d" in
      Alcotest.(check string) "forced mode is reported" "1.5d"
        st15.Cluster.st_last_mode;
      Alcotest.(check bool) "banded shards shrink the gather" true
        (st15.Cluster.st_bytes_15d < st15.Cluster.st_bytes_1d);
      Alcotest.(check bool) "matches the reference" true
        (max_abs_diff w15 expected <= 1e-9);
      (* same partials, same reduce order — the layouts agree bit-exactly *)
      Alcotest.(check string) "1.5d equals 1d bit-exactly" (checksum w1)
        (checksum w15))

let test_tiny_matrix_more_workers_than_rows () =
  let rng = Rng.create 46 in
  let x = Gen.sparse_uniform rng ~rows:3 ~cols:5 ~density:0.8 in
  let y = Gen.vector rng 5 in
  with_cluster 4 (fun c ->
      Alcotest.(check string) "empty shards are harmless"
        (checksum (Blas.csrmv x y))
        (checksum (Cluster.x_y_sparse c x y)))

(* --- crash-respawn recovery --------------------------------------------- *)

let test_crash_respawn_bit_exact () =
  let x, y, v, _ = case 47 ~rows:160 ~cols:48 ~density:0.15 in
  let clean =
    with_cluster 2 (fun c -> Cluster.pattern_sparse c x ~y ~v ~alpha:1.0 ())
  in
  let faulty, stats =
    (* workers inherit KF_FAULTS from the environment and exit at
       dist.worker.op; respawns run with injection cleared *)
    with_env "KF_FAULTS" "crash:every=1:seed=1" (fun () ->
        with_cluster 2 (fun c ->
            let w = Cluster.pattern_sparse c x ~y ~v ~alpha:1.0 () in
            (w, Cluster.stats c)))
  in
  Alcotest.(check bool) "workers did crash and respawn" true
    (stats.Cluster.st_respawns >= 1);
  Alcotest.(check string) "recovered run is bit-exact" (checksum clean)
    (checksum faulty)

(* --- observability and calibration -------------------------------------- *)

let test_stats_and_worker_compute () =
  let x, y, _, _ = case 48 ~rows:100 ~cols:30 ~density:0.2 in
  with_cluster 2 (fun c ->
      for _ = 1 to 3 do
        ignore (Cluster.xt_y_sparse c x ~y:(Array.make 100 1.0) ~alpha:1.0)
      done;
      ignore (Cluster.x_y_sparse c x y);
      let st = Cluster.stats c in
      Alcotest.(check int) "ops counted" 4 st.Cluster.st_ops;
      Alcotest.(check bool) "bytes flowed both ways" true
        (st.Cluster.st_bytes_sent > 0 && st.Cluster.st_bytes_received > 0);
      Alcotest.(check bool) "imbalance is a ratio >= 1" true
        (st.Cluster.st_imbalance >= 1.0);
      let h = Cluster.worker_compute c in
      (* exactly one sample per shard op per worker — except under the
         CI chaos matrix, where a crash-respawn forgets a worker's
         earlier samples, so assert the recovery-proof bounds *)
      let n = Kf_obs.Histogram.count h in
      Alcotest.(check bool) "merged histogram holds the shard-op samples" true
        (n >= 2 && n <= 4 * 2);
      Alcotest.(check bool) "describe names the tier" true
        (String.length (Cluster.describe c) >= 4
        && String.sub (Cluster.describe c) 0 4 = "dist"))

let test_calibrate () =
  with_cluster 1 (fun c ->
      let net = Cluster.calibrate c in
      Alcotest.(check bool) "probe yields positive parameters" true
        (net.Nm.latency_us > 0.0 && net.Nm.gbps > 0.0);
      Alcotest.(check bool) "model installed on the cluster" true
        (Cluster.netmodel c == net))

(* --- the executor and a full training loop ------------------------------ *)

let test_executor_dist_engine () =
  let x, y, v, z = case 49 ~rows:130 ~cols:32 ~density:0.2 in
  with_cluster 2 (fun c ->
      let r =
        Fusion.Executor.pattern ~engine:Fusion.Executor.Dist ~cluster:c dev
          (Fusion.Executor.Sparse x) ~y ~v ~beta_z:(0.7, z) ~alpha:1.3 ()
      in
      let host =
        Fusion.Executor.pattern ~engine:Fusion.Executor.Host dev
          (Fusion.Executor.Sparse x) ~y ~v ~beta_z:(0.7, z) ~alpha:1.3 ()
      in
      Alcotest.(check bool) "engine_used names dist" true
        (String.length r.Fusion.Executor.engine_used >= 4
        && String.sub r.Fusion.Executor.engine_used 0 4 = "dist");
      Alcotest.(check bool) "dist equals host <= 1e-9" true
        (max_abs_diff r.Fusion.Executor.w host.Fusion.Executor.w <= 1e-9);
      (* [~into] receives the dist result itself, bit for bit *)
      let into = Array.make 32 nan in
      let ri =
        Fusion.Executor.pattern ~engine:Fusion.Executor.Dist ~cluster:c ~into
          dev (Fusion.Executor.Sparse x) ~y ~v ~beta_z:(0.7, z) ~alpha:1.3 ()
      in
      Alcotest.(check bool) "pattern ~into returns into" true
        (ri.Fusion.Executor.w == into);
      Alcotest.(check bool) "pattern ~into bit-equal" true
        (floats_bit_equal into r.Fusion.Executor.w);
      let p = Array.init 130 (fun i -> float_of_int (i mod 7) -. 3.0) in
      let xt ?into () =
        (Fusion.Executor.xt_y ~engine:Fusion.Executor.Dist ~cluster:c ?into dev
           (Fusion.Executor.Sparse x) p ~alpha:0.5)
          .Fusion.Executor.w
      in
      let into = Array.make 32 nan in
      let fresh = xt () in
      Alcotest.(check bool) "xt_y ~into returns into" true
        (xt ~into () == into);
      Alcotest.(check bool) "xt_y ~into bit-equal" true
        (floats_bit_equal into fresh))

let test_glm_trains_on_dist () =
  let rng = Rng.create 50 in
  let x = Gen.sparse_uniform rng ~rows:80 ~cols:10 ~density:0.4 in
  let targets = Array.init 80 (fun i -> float_of_int (i mod 5)) in
  let fit engine =
    Kf_ml.Glm.fit ~engine ~newton_iterations:3 ~cg_iterations:5 dev
      (Fusion.Executor.Sparse x) ~targets
  in
  (* a Dist session runs on the shared default cluster ([KF_WORKERS]);
     the op count proves the solve did not fall back to the host *)
  let dist_ops = Kf_obs.Counter.make "dist.ops" in
  let ops0 = Kf_obs.Counter.value dist_ops in
  let d = fit Fusion.Executor.Dist in
  Alcotest.(check bool) "the default cluster ran the solve's ops" true
    (Kf_obs.Counter.value dist_ops > ops0);
  let h = fit Fusion.Executor.Host in
  Alcotest.(check bool) "GLM weights agree across tiers" true
    (Vec.approx_equal ~tol:1e-6 d.Kf_ml.Glm.weights h.Kf_ml.Glm.weights)

let suite =
  [
    QCheck_alcotest.to_alcotest test_wire_qcheck;
    QCheck_alcotest.to_alcotest test_shard_roundtrip_qcheck;
    Alcotest.test_case "dense shards roundtrip" `Quick
      test_dense_shard_roundtrip;
    Alcotest.test_case "block replies roundtrip" `Quick test_blocks_roundtrip;
    Alcotest.test_case "histograms cross the wire" `Quick
      test_histogram_roundtrip;
    Alcotest.test_case "damaged frames are rejected" `Quick test_corrupt_frames;
    Alcotest.test_case "frame bytes are stable" `Quick test_frame_bytes_stable;
    Alcotest.test_case "frame with an oversized count is rejected" `Quick
      test_frame_oversized_count;
    Alcotest.test_case "netmodel alpha-beta arithmetic" `Quick
      test_netmodel_xfer;
    Alcotest.test_case "netmodel mode choice" `Quick test_netmodel_choose_mode;
    Alcotest.test_case "netmodel touched-block estimate" `Quick
      test_netmodel_touched_blocks;
    Alcotest.test_case "netmodel worker-count recommendation" `Quick
      test_netmodel_recommend;
    Alcotest.test_case "block width from the environment" `Quick
      test_block_cols_env;
    Alcotest.test_case "pattern matches the reference" `Quick
      test_pattern_differential;
    Alcotest.test_case "xt_y matches the reference" `Quick
      test_xt_y_differential;
    Alcotest.test_case "x_y is bit-exact" `Quick test_x_y_differential;
    Alcotest.test_case "1.5D allreduce on banded shards" `Quick test_15d_mode;
    Alcotest.test_case "more workers than rows" `Quick
      test_tiny_matrix_more_workers_than_rows;
    Alcotest.test_case "crash-respawn recovery is bit-exact" `Quick
      test_crash_respawn_bit_exact;
    Alcotest.test_case "stats and merged worker histograms" `Quick
      test_stats_and_worker_compute;
    Alcotest.test_case "netmodel calibration probe" `Quick test_calibrate;
    Alcotest.test_case "executor dist engine" `Quick test_executor_dist_engine;
    Alcotest.test_case "GLM trains through the dist tier" `Quick
      test_glm_trains_on_dist;
  ]
