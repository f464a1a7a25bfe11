(* The domain pool and work partitioner underneath the host backend. *)

let with_pool size f =
  let pool = Par.Pool.create ~size () in
  Fun.protect ~finally:(fun () -> if size > 1 then Par.Pool.shutdown pool)
    (fun () -> f pool)

let test_default_size_env () =
  let saved = Sys.getenv_opt "KF_DOMAINS" in
  let restore () =
    match saved with
    | Some v -> Unix.putenv "KF_DOMAINS" v
    | None -> Unix.putenv "KF_DOMAINS" ""
  in
  let rejects raw got =
    Unix.putenv "KF_DOMAINS" raw;
    Alcotest.check_raises (raw ^ " is the typed error")
      (Kf_obs.Env.Malformed
         { name = "KF_DOMAINS"; expected = "an integer >= 1"; got })
      (fun () -> ignore (Par.Pool.default_size ()))
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "KF_DOMAINS" "3";
      Alcotest.(check int) "env respected" 3 (Par.Pool.default_size ());
      rejects "not-a-number" {|"not-a-number"|};
      rejects "0" "0";
      Unix.putenv "KF_DOMAINS" " ";
      Alcotest.(check int) "blank is unset"
        (Stdlib.min 128 (Domain.recommended_domain_count ()))
        (Par.Pool.default_size ()))

let test_run_workers_covers_all () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let seen = Array.make size 0 in
          Par.Pool.run_workers pool (fun wid -> seen.(wid) <- seen.(wid) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "each of %d workers ran once" size)
            (Array.make size 1) seen))
    [ 1; 2; 4 ]

let test_pool_reuse () =
  with_pool 3 (fun pool ->
      (* many jobs through the same pool: the handshake must not lose a
         wake-up or double-run a generation *)
      for round = 1 to 50 do
        let counter = Atomic.make 0 in
        Par.Pool.run_workers pool (fun _ -> Atomic.incr counter);
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          3 (Atomic.get counter)
      done)

let test_parallel_for_sums () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          Par.Pool.parallel_for pool ~lo:0 ~hi:n (fun a b ->
              for i = a to b - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "every index covered exactly once (size %d)" size)
            true
            (Array.for_all (( = ) 1) hits)))
    [ 1; 2; 4 ]

let test_parallel_for_empty () =
  with_pool 2 (fun pool ->
      let touched = ref false in
      Par.Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> touched := true);
      Par.Pool.parallel_for pool ~lo:5 ~hi:3 (fun _ _ -> touched := true);
      Alcotest.(check bool) "empty ranges run nothing" false !touched)

let test_map_workers () =
  with_pool 4 (fun pool ->
      let ids = Par.Pool.map_workers pool (fun wid -> wid * 10) in
      Alcotest.(check (array int)) "results indexed by worker"
        [| 0; 10; 20; 30 |] ids)

let test_exception_propagates () =
  with_pool 2 (fun pool ->
      let raised =
        try
          Par.Pool.run_workers pool (fun wid ->
              if wid = 1 then failwith "boom");
          false
        with Failure m -> m = "boom"
      in
      Alcotest.(check bool) "worker exception re-raised in caller" true raised;
      (* the pool must stay usable after a failed job *)
      let counter = Atomic.make 0 in
      Par.Pool.run_workers pool (fun _ -> Atomic.incr counter);
      Alcotest.(check int) "pool alive after exception" 2 (Atomic.get counter))

let test_reduce_tree () =
  with_pool 3 (fun pool ->
      List.iter
        (fun parts ->
          let arrays = Array.init parts (fun i -> [| float_of_int (i + 1) |]) in
          let total =
            Par.Pool.reduce pool
              ~merge:(fun ~dst ~src -> dst.(0) <- dst.(0) +. src.(0))
              arrays
          in
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "sum of 1..%d" parts)
            (float_of_int (parts * (parts + 1) / 2))
            total.(0))
        [ 1; 2; 3; 4; 5; 8 ])

let test_partition_uniform () =
  let b = Par.Partition.uniform ~n:10 ~parts:3 in
  Alcotest.(check int) "starts at 0" 0 b.(0);
  Alcotest.(check int) "ends at n" 10 b.(3);
  for k = 0 to 2 do
    Alcotest.(check bool) "monotone" true (b.(k) <= b.(k + 1))
  done;
  (* more parts than items: empty parts allowed, still covering *)
  let b = Par.Partition.uniform ~n:2 ~parts:5 in
  Alcotest.(check int) "covers despite empty parts" 2 b.(5)

let prefix_of_weights w =
  let n = Array.length w in
  let p = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    p.(i + 1) <- p.(i) + w.(i)
  done;
  p

let test_partition_by_prefix_balanced () =
  (* a skewed distribution: one heavy item among light ones *)
  let weights = Array.make 100 1 in
  weights.(17) <- 500;
  let prefix = prefix_of_weights weights in
  let parts = 4 in
  let b = Par.Partition.by_prefix ~prefix ~parts () in
  Alcotest.(check int) "covers all" 100 b.(parts);
  Alcotest.(check int) "starts at 0" 0 b.(0);
  for k = 0 to parts - 1 do
    Alcotest.(check bool) "monotone" true (b.(k) <= b.(k + 1))
  done;
  (* the heavy item must sit alone-ish: no part other than the one
     holding item 17 may carry more than ~2x the fair share of the
     remaining weight *)
  let fair = (prefix.(100) + (100 * 1)) / parts in
  for k = 0 to parts - 1 do
    let holds_heavy = b.(k) <= 17 && 17 < b.(k + 1) in
    if not holds_heavy then begin
      let load = prefix.(b.(k + 1)) - prefix.(b.(k)) + (b.(k + 1) - b.(k)) in
      Alcotest.(check bool)
        (Printf.sprintf "part %d load %d <= 2*fair %d" k load fair)
        true
        (load <= 2 * fair)
    end
  done

let test_partition_qcheck =
  QCheck.Test.make ~count:200 ~name:"by_prefix covers [0,n) monotonically"
    QCheck.(
      pair (list_of_size Gen.(int_range 0 60) (int_range 0 50))
        (int_range 1 8))
    (fun (weights, parts) ->
      let weights = Array.of_list weights in
      let prefix = prefix_of_weights weights in
      let b = Par.Partition.by_prefix ~prefix ~parts () in
      let n = Array.length weights in
      b.(0) = 0
      && b.(parts) = n
      && Array.for_all (fun x -> x >= 0 && x <= n) b
      &&
      let mono = ref true in
      for k = 0 to parts - 1 do
        if b.(k) > b.(k + 1) then mono := false
      done;
      !mono)

(* Two domains submitting to one pool at once, as two services on the
   shared default pool do: each job must run whole on every worker, and
   each submitter must get its own result back. *)
let test_concurrent_submitters () =
  with_pool 2 @@ fun pool ->
  let x =
    Matrix.Gen.sparse_uniform (Matrix.Rng.create 3) ~rows:2000 ~cols:256
      ~density:0.05
  in
  let submitter seed () =
    let y = Matrix.Gen.vector (Matrix.Rng.create seed) 256 in
    let expected = Matrix.Blas.csrmv x y in
    let agrees got =
      Array.for_all2
        (fun g e -> Float.abs (g -. e) <= 1e-12 *. (1.0 +. Float.abs e))
        got expected
    in
    let ok = ref 0 in
    for _ = 1 to 500 do
      if agrees (Matrix.Blas.par_csrmv ~pool x y) then incr ok
    done;
    !ok
  in
  let other = Domain.spawn (submitter 1) in
  let mine = submitter 2 () in
  let theirs = Domain.join other in
  Alcotest.(check int) "every result agrees with Blas.csrmv" 1000
    (mine + theirs)

(* Two domains make a fresh process's first [Pool.default] calls at
   once; the child exits 0 if they got the same pool and 3 if not.
   Each trial needs a fresh process, because the first call happens
   once per process: the test binary re-runs itself with
   [pool_race_flag]. *)
let pool_race_flag = "--pool-default-race"

let maybe_run_pool_race () =
  if Array.mem pool_race_flag Sys.argv then begin
    let ready = Atomic.make 0 in
    let first_call () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Par.Pool.default ()
    in
    let other = Domain.spawn first_call in
    let mine = first_call () in
    exit (if mine == Domain.join other then 0 else 3)
  end

let test_default_pool_race () =
  let env =
    Array.append [| "KF_DOMAINS=2" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"KF_DOMAINS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let trial () =
    let pid =
      Out_channel.with_open_bin Filename.null (fun null ->
          (* The child's stdout carries only the harness's banner. *)
          Unix.create_process_env Sys.executable_name
            [| Sys.executable_name; pool_race_flag |]
            env Unix.stdin (Unix.descr_of_out_channel null) Unix.stderr)
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> "one pool"
    | Unix.WEXITED 3 -> "two pools"
    | Unix.WEXITED n -> Printf.sprintf "child exit %d" n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "child signal %d" n
  in
  let results = List.init 20 (fun _ -> trial ()) in
  Alcotest.(check (list string))
    "one default pool in each of 20 fresh processes"
    (List.init 20 (fun _ -> "one pool"))
    results

let suite =
  [
    Alcotest.test_case "default size from KF_DOMAINS" `Quick
      test_default_size_env;
    Alcotest.test_case "run_workers covers all workers" `Quick
      test_run_workers_covers_all;
    Alcotest.test_case "pool survives many jobs" `Quick test_pool_reuse;
    Alcotest.test_case "parallel_for covers the range" `Quick
      test_parallel_for_sums;
    Alcotest.test_case "parallel_for on empty ranges" `Quick
      test_parallel_for_empty;
    Alcotest.test_case "map_workers indexes by worker" `Quick test_map_workers;
    Alcotest.test_case "exceptions propagate, pool survives" `Quick
      test_exception_propagates;
    Alcotest.test_case "tree reduce sums all parts" `Quick test_reduce_tree;
    Alcotest.test_case "two domains submit to one pool" `Quick
      test_concurrent_submitters;
    Alcotest.test_case "uniform partition bounds" `Quick test_partition_uniform;
    Alcotest.test_case "nnz-balanced partition: skewed load" `Quick
      test_partition_by_prefix_balanced;
    QCheck_alcotest.to_alcotest test_partition_qcheck;
    Alcotest.test_case "racing first callers share the default pool" `Quick
      test_default_pool_race;
  ]
