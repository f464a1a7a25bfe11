(* Resilience layer: chaos differential testing, checkpoint robustness,
   and kill/resume equality.

   The central property mirrors the paper's correctness claim under an
   adversarial schedule: a run whose injected faults are all recoverable
   (bounded launch failures, NaN/Inf poisoning, pool-domain crashes)
   must produce the same answer as the fault-free run, across engines x
   pool sizes x pattern instantiations, within the usual 1e-9 relative
   reassociation tolerance.  Checkpoint/resume is held to a stricter
   bar: bit-exact equality with the uninterrupted run. *)
open Matrix
module Fault = Kf_resil.Fault
module Guard = Kf_resil.Guard
module Ckpt = Kf_resil.Ckpt

let device = Gpu_sim.Device.gtx_titan

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Kf_obs.Counter.all ()))

let max_abs v = Array.fold_left (fun m x -> Stdlib.max m (abs_float x)) 0.0 v

let close ~what reference w =
  if Array.length reference <> Array.length w then
    QCheck.Test.fail_reportf "%s: length %d <> %d" what
      (Array.length reference) (Array.length w);
  let tol = 1e-9 *. (1.0 +. max_abs reference) in
  Array.iteri
    (fun i r ->
      if abs_float (r -. w.(i)) > tol then
        QCheck.Test.fail_reportf "%s: w.(%d) = %.17g, reference %.17g" what i
          w.(i) r)
    reference;
  true

let bits_equal a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri
         (fun i x ->
           if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
             ok := false)
         a;
       !ok
     end

let with_tmp f =
  let path = Filename.temp_file "kf_resil" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ---- fault-spec parsing ---- *)

let test_spec_parsing () =
  (match Fault.parse "" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty spec rejected: %s" e);
  Alcotest.(check bool) "empty spec clears" false (Fault.active ());
  Fault.with_config "launch:p=0.05:seed=7,nan:after=3" (fun () ->
      Alcotest.(check bool) "two-rule spec active" true (Fault.active ()));
  let rejected spec =
    match Fault.parse spec with
    | Ok () ->
        Fault.clear ();
        Alcotest.failf "spec %S should have been rejected" spec
    | Error _ -> ()
  in
  rejected "bogus:p=0.5";
  rejected "launch:p=abc";
  rejected "launch";
  (* no p/after/every: never fires *)
  rejected "nan:frequency=2";
  Alcotest.(check bool) "failed parses leave config clear" false
    (Fault.active ())

(* ---- chaos differential property ---- *)

let pool1 = lazy (Par.Pool.create ~size:1 ())
let pool2 = lazy (Par.Pool.create ~size:2 ())
let pool4 = lazy (Par.Pool.create ~size:4 ())

let engine_pools () =
  [
    ("fused", Fusion.Executor.Fused, None);
    ("library", Fusion.Executor.Library, None);
    ("host d=1", Fusion.Executor.Host, Some (Lazy.force pool1));
    ("host d=2", Fusion.Executor.Host, Some (Lazy.force pool2));
    ("host d=4", Fusion.Executor.Host, Some (Lazy.force pool4));
  ]

type inst = Xty | Xtxy | Weighted | With_z | Full

let insts = [ Xty; Xtxy; Weighted; With_z; Full ]

let inst_name = function
  | Xty -> "xt_y"
  | Xtxy -> "xt_x_y"
  | Weighted -> "weighted"
  | With_z -> "with_z"
  | Full -> "full"

(* Every recoverable-fault schedule below either retries into a clean
   run of the same engine, falls back to the next engine, or bottoms
   out at the sequential reference — all of which agree with the
   fault-free answer to reassociation error. *)
let chaos_specs =
  [
    "launch:every=3:seed=1";
    "nan:after=0:times=2,launch:every=5:seed=2";
    "crash:every=2:seed=0,inf:every=5:seed=3";
    "launch:p=0.4:seed=11,nan:p=0.2:seed=12";
  ]

let chaos_case =
  QCheck.make
    ~print:(fun (seed, r, c, d) ->
      Printf.sprintf "seed=%d rows=%d cols=%d density=%.3f" seed r c d)
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* rows = int_range 2 60 in
      let* cols = int_range 1 40 in
      let* density = float_range 0.05 0.4 in
      return (seed, rows, cols, density))

let test_chaos_differential =
  QCheck.Test.make ~count:12
    ~name:"injected recoverable faults + recovery == fault-free run"
    chaos_case
    (fun (seed, rows, cols, density) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let input = Fusion.Executor.Sparse x in
      let y = Gen.vector rng cols in
      let p = Gen.vector rng rows in
      let v = Gen.vector rng rows in
      let z = Gen.vector rng cols in
      let alpha = 1.25 in
      let beta = 0.75 in
      let reference = function
        | Xty ->
            let r = Blas.csrmv_t x p in
            Vec.scal alpha r;
            r
        | Xtxy -> Blas.pattern_sparse ~alpha x y ()
        | Weighted -> Blas.pattern_sparse ~alpha x ~v y ()
        | With_z -> Blas.pattern_sparse ~alpha x y ~beta ~z ()
        | Full -> Blas.pattern_sparse ~alpha x ~v y ~beta ~z ()
      in
      let run ~engine ~pool = function
        | Xty -> (Fusion.Executor.xt_y ~engine ?pool device input p ~alpha).w
        | Xtxy ->
            (Fusion.Executor.pattern ~engine ?pool device input ~y ~alpha ()).w
        | Weighted ->
            (Fusion.Executor.pattern ~engine ?pool device input ~y ~v ~alpha ())
              .w
        | With_z ->
            (Fusion.Executor.pattern ~engine ?pool device input ~y
               ~beta_z:(beta, z) ~alpha ())
              .w
        | Full ->
            (Fusion.Executor.pattern ~engine ?pool device input ~y ~v
               ~beta_z:(beta, z) ~alpha ())
              .w
      in
      List.for_all
        (fun spec ->
          Fault.with_config spec (fun () ->
              List.for_all
                (fun (ename, engine, pool) ->
                  List.for_all
                    (fun inst ->
                      close
                        ~what:
                          (Printf.sprintf "%s %s under %S" ename
                             (inst_name inst) spec)
                        (reference inst)
                        (run ~engine ~pool inst))
                    insts)
                (engine_pools ())))
        chaos_specs)

(* A first-attempt NaN poisoning must be healed by retry, visibly. *)
let test_nan_retry_recovers () =
  let rng = Rng.create 7 in
  let x = Gen.sparse_uniform rng ~rows:40 ~cols:20 ~density:0.2 in
  let y = Gen.vector rng 20 in
  let reference = Blas.pattern_sparse ~alpha:1.0 x y () in
  let before = counter "resil.retries" in
  let w =
    Fault.with_config "nan:after=0:times=1" (fun () ->
        (Fusion.Executor.pattern device (Sparse x) ~y ~alpha:1.0 ()).w)
  in
  Alcotest.(check bool) "healed result" true (close ~what:"nan retry" reference w);
  Alcotest.(check bool) "a retry was recorded" true
    (counter "resil.retries" > before)

(* Exhausting every engine attempt must land on the reference floor. *)
let test_reference_floor () =
  let rng = Rng.create 8 in
  let x = Gen.sparse_uniform rng ~rows:30 ~cols:15 ~density:0.3 in
  let p = Gen.vector rng 30 in
  let reference = Blas.csrmv_t x p in
  let before = counter "resil.reference_runs" in
  let w =
    (* every=1: every armed launch fails, so fused, its retry, and the
       library fallback all die; only the unarmed reference survives *)
    Fault.with_config "launch:every=1:seed=0" (fun () ->
        (Fusion.Executor.xt_y device (Sparse x) p ~alpha:1.0).w)
  in
  Alcotest.(check bool) "reference result" true
    (close ~what:"reference floor" reference w);
  Alcotest.(check bool) "reference run recorded" true
    (counter "resil.reference_runs" > before)

(* ---- guards ---- *)

(* The guard trips on the first non-finite element wherever it sits
   (and agrees with a [Float.is_finite] scan); disabled guards never
   raise. *)
let test_guard_detects () =
  let check name expected v =
    let got =
      match Guard.with_enabled true (fun () -> Guard.check_vec ~point:"t" v) with
      | () -> None
      | exception Guard.Unhealthy { index; _ } -> Some index
    in
    Alcotest.(check (option int)) name expected got;
    Alcotest.(check bool) (name ^ ": healthy") (expected = None)
      (Guard.healthy v)
  in
  check "NaN" (Some 2) [| 1.0; 2.0; nan; 4.0 |];
  check "empty" None [||];
  check "all finite" None [| 0.0; -0.0; 1e308; -1e-300; 5e-324 |];
  List.iter
    (fun (bad_name, bad) ->
      List.iter
        (fun (n, at) ->
          let v = Array.init n (fun i -> float_of_int i -. 2.5) in
          v.(at) <- bad;
          check (Printf.sprintf "%s at %d of %d" bad_name at n) (Some at) v;
          if at + 1 < n then begin
            v.(n - 1) <- nan;
            check (Printf.sprintf "%s at %d, NaN at end" bad_name at)
              (Some at) v
          end)
        [ (1, 0); (9, 0); (9, 4); (9, 8) ])
    [ ("nan", nan); ("+inf", infinity); ("-inf", neg_infinity) ];
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    let v =
      Array.init 40 (fun _ ->
          match Rng.int rng 12 with
          | 0 -> nan
          | 1 -> infinity
          | 2 -> neg_infinity
          | _ -> Rng.float rng 100.0 -. 50.0)
    in
    let expected =
      let rec go i =
        if i = Array.length v then None
        else if Float.is_finite v.(i) then go (i + 1)
        else Some i
      in
      go 0
    in
    check "random" expected v
  done;
  Guard.with_enabled false (fun () ->
      Guard.check_vec ~point:"t" [| 1.0; 2.0; nan; 4.0 |])

(* ---- pool crash and allocation-failure recovery ---- *)

let test_pool_crash_recovers () =
  let rng = Rng.create 9 in
  let x = Gen.sparse_uniform rng ~rows:50 ~cols:25 ~density:0.2 in
  let y = Gen.vector rng 25 in
  let reference = Blas.pattern_sparse ~alpha:1.0 x y () in
  let pool = Lazy.force pool2 in
  let w =
    Fault.with_config "crash:every=2:seed=0" (fun () ->
        (Fusion.Executor.pattern ~engine:Fusion.Executor.Host ~pool device
           (Sparse x) ~y ~alpha:1.0 ())
          .w)
  in
  Alcotest.(check bool) "crash healed" true
    (close ~what:"pool crash" reference w)

let test_alloc_recovery () =
  let mgr = Sysml.Memmgr.create device in
  let before = counter "resil.alloc_recoveries" in
  Fault.with_config "alloc:after=0:times=2" (fun () ->
      let cost =
        Sysml.Memmgr.ensure_resident mgr ~key:"X" ~bytes:4096
          ~needs_conversion:false
      in
      Alcotest.(check bool) "allocation survived the fault" true (cost >= 0.0);
      ignore
        (Sysml.Memmgr.ensure_resident mgr ~key:"y" ~bytes:2048
           ~needs_conversion:false));
  Alcotest.(check bool) "recoveries recorded" true
    (counter "resil.alloc_recoveries" >= before + 2);
  Alcotest.(check bool) "blocks resident after recovery" true
    (Sysml.Memmgr.resident_bytes mgr > 0)

(* ---- checkpoint encode/decode ---- *)

let field_equal a b =
  match (a, b) with
  | Ckpt.Int x, Ckpt.Int y -> x = y
  | Ckpt.Str x, Ckpt.Str y -> x = y
  | Ckpt.Float x, Ckpt.Float y ->
      Int64.bits_of_float x = Int64.bits_of_float y
  | Ckpt.Floats x, Ckpt.Floats y -> bits_equal x y
  | Ckpt.Ints x, Ckpt.Ints y -> x = y
  | _ -> false

let payload_equal p q =
  List.length p = List.length q
  && List.for_all2
       (fun (n1, f1) (n2, f2) -> n1 = n2 && field_equal f1 f2)
       p q

let awkward_floats =
  [| nan; infinity; neg_infinity; -0.0; 0.0; 4.9e-324; -3.7e300; 1.5 |]

let payload_case =
  QCheck.make
    ~print:(fun p -> Printf.sprintf "<payload of %d fields>" (List.length p))
    QCheck.Gen.(
      let field =
        oneof
          [
            map (fun i -> Ckpt.Int i) int;
            map (fun f -> Ckpt.Float f) float;
            map (fun i -> Ckpt.Float awkward_floats.(i))
              (int_bound (Array.length awkward_floats - 1));
            map (fun s -> Ckpt.Str s) (string_size (int_bound 20));
            map (fun l -> Ckpt.Floats (Array.of_list l)) (list_size (int_bound 12) float);
            map (fun l -> Ckpt.Ints (Array.of_list l)) (list_size (int_bound 12) int);
          ]
      in
      let* n = int_range 0 8 in
      let* fields = list_repeat n field in
      return (List.mapi (fun i f -> (Printf.sprintf "f%d" i, f)) fields))

let test_ckpt_roundtrip =
  QCheck.Test.make ~count:100 ~name:"ckpt encode/decode is bit-exact"
    payload_case
    (fun payload ->
      let decoded = Ckpt.decode (Ckpt.encode payload) in
      if not (payload_equal payload decoded) then
        QCheck.Test.fail_reportf "decode(encode p) <> p";
      true)

let test_ckpt_file_roundtrip () =
  with_tmp @@ fun path ->
  let payload =
    [
      ("w", Ckpt.Floats [| 1.0; nan; -0.0; 7.25e-300 |]);
      ("iters", Ckpt.Int 42);
      ("note", Ckpt.Str "hello\nworld");
    ]
  in
  Ckpt.write ~path ~algorithm:"unit-test" ~iteration:7 payload;
  let t = Ckpt.read ~path in
  Alcotest.(check string) "algorithm" "unit-test" t.Ckpt.algorithm;
  Alcotest.(check int) "iteration" 7 t.Ckpt.iteration;
  Alcotest.(check bool) "weights bit-exact" true
    (bits_equal [| 1.0; nan; -0.0; 7.25e-300 |]
       (Ckpt.get_floats t.Ckpt.payload "w"));
  Alcotest.(check int) "int field" 42 (Ckpt.get_int t.Ckpt.payload "iters");
  Alcotest.(check string) "str field" "hello\nworld"
    (Ckpt.get_str t.Ckpt.payload "note")

let expect_corrupt ~what ~needle f =
  match f () with
  | (_ : Ckpt.t) -> Alcotest.failf "%s: load unexpectedly succeeded" what
  | exception Ckpt.Corrupt msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      if not (contains msg needle) then
        Alcotest.failf "%s: error %S does not mention %S" what msg needle

let write_sample path =
  Ckpt.write ~path ~algorithm:"unit-test" ~iteration:3
    [ ("w", Ckpt.Floats (Array.init 32 float_of_int)) ]

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let test_ckpt_truncated () =
  with_tmp @@ fun path ->
  write_sample path;
  let raw = read_all path in
  write_all path (String.sub raw 0 (String.length raw - 9));
  expect_corrupt ~what:"truncated file" ~needle:"truncated" (fun () ->
      Ckpt.read ~path)

let test_ckpt_checksum_mismatch () =
  with_tmp @@ fun path ->
  write_sample path;
  let raw = read_all path in
  let b = Bytes.of_string raw in
  let i = Bytes.length b - 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  write_all path (Bytes.to_string b);
  expect_corrupt ~what:"flipped payload byte" ~needle:"checksum mismatch"
    (fun () -> Ckpt.read ~path)

let test_ckpt_version_skew () =
  with_tmp @@ fun path ->
  write_sample path;
  let raw = read_all path in
  let skewed =
    "kf-ckpt/9" ^ String.sub raw 9 (String.length raw - 9)
  in
  write_all path skewed;
  expect_corrupt ~what:"future version" ~needle:"version" (fun () ->
      Ckpt.read ~path)

(* An injected truncation during the write must be healed before the
   rename: the published file always loads. *)
let test_ckpt_write_self_heals () =
  with_tmp @@ fun path ->
  let before = counter "resil.ckpt_rewrites" in
  Fault.with_config "trunc:after=0:times=1" (fun () -> write_sample path);
  Alcotest.(check bool) "rewrite recorded" true
    (counter "resil.ckpt_rewrites" > before);
  let t = Ckpt.read ~path in
  Alcotest.(check int) "healed file loads" 32
    (Array.length (Ckpt.get_floats t.Ckpt.payload "w"))

(* ---- format stability and allocation bounds ---- *)

(* Known answers: the FNV-1a 64 reference vectors, then golden values
   that pin the kf-ckpt/1 bytes, so files written by older builds still
   load and weights checksums stay comparable across commits. *)
let test_fnv_known_answers () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) (Printf.sprintf "fnv1a64 %S" s) want
        (Printf.sprintf "%016Lx" (Ckpt.fnv1a64 s ~pos:0 ~len:(String.length s))))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8") ];
  Alcotest.(check string) "range of a longer string" "85944171f73967e8"
    (Printf.sprintf "%016Lx" (Ckpt.fnv1a64 "xxfoobarxx" ~pos:2 ~len:6));
  Alcotest.(check string) "checksum_floats" "10f3c9269c894751"
    (Ckpt.checksum_floats [| 1.0; nan; -0.0; 7.25e-300 |])

let test_ckpt_file_bytes_stable () =
  with_tmp @@ fun path ->
  write_sample path;
  let raw = read_all path in
  Alcotest.(check int) "file size" 350 (String.length raw);
  Alcotest.(check string) "header" "kf-ckpt/1\ne129d48536bbca32\n319"
    (String.sub raw 0 30)

(* A Floats (tag 3) or Ints (tag 4) field claiming 0xFFFFFFFF elements,
   backed by 12 bytes: 27 bytes that once asked for a 34 GB array. *)
let oversized_count tag =
  String.make 1 (Char.chr tag) ^ "\008\000logreg.w\255\255\255\255"
  ^ String.make 12 '\000'

let allocated f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

let test_ckpt_decode_oversized_count () =
  List.iter
    (fun tag ->
      let payload = oversized_count tag in
      Alcotest.(check int) "payload size" 27 (String.length payload);
      let outcome, bytes =
        allocated (fun () ->
            match Ckpt.decode payload with
            | _ -> None
            | exception Ckpt.Corrupt msg -> Some msg)
      in
      (match outcome with
      | None -> Alcotest.failf "tag %d: decode accepted a count it cannot back" tag
      | Some msg ->
          Alcotest.(check bool) ("names the field: " ^ msg) true
            (Astring.String.is_infix ~affix:"logreg.w" msg));
      Alcotest.(check bool)
        (Printf.sprintf "tag %d: allocated %.0f bytes" tag bytes)
        true (bytes < 1e6))
    [ 3; 4 ]

(* logreg-wide's checkpoint: 150,000 weights and 20,000 margins. *)
let test_ckpt_allocation_bounded () =
  with_tmp @@ fun path ->
  let rng = Rng.create 7 in
  let payload =
    [
      ("logreg.w", Ckpt.Floats (Gen.vector rng 150_000));
      ("logreg.margins", Ckpt.Floats (Gen.vector rng 20_000));
      ("logreg.loss", Ckpt.Float 0.25);
    ]
  in
  let write () = Ckpt.write ~path ~algorithm:"logreg" ~iteration:3 payload in
  write ();
  let size = float_of_int (Unix.stat path).Unix.st_size in
  let (), w = allocated write in
  let t, r = allocated (fun () -> Ckpt.read ~path) in
  Alcotest.(check bool) "read back" true
    (bits_equal (Ckpt.get_floats payload "logreg.w")
       (Ckpt.get_floats t.Ckpt.payload "logreg.w"));
  Alcotest.(check bool)
    (Printf.sprintf "write allocates %.2fx the file" (w /. size))
    true (w <= 3.0 *. size);
  Alcotest.(check bool)
    (Printf.sprintf "read allocates %.2fx the file" (r /. size))
    true (r <= 3.0 *. size)

(* ---- kill/resume equality, all six algorithms ---- *)

let mk_regression seed =
  let rng = Rng.create seed in
  let x = Gen.sparse_uniform rng ~rows:160 ~cols:32 ~density:0.15 in
  let input = Fusion.Executor.Sparse x in
  let truth = Gen.vector (Rng.create (seed + 2)) 32 in
  let raw = Blas.csrmv x truth in
  (input, raw)

let test_resume_lr () =
  let input, targets = mk_regression 21 in
  let reference = Kf_ml.Linreg_cg.fit device input ~targets in
  with_tmp @@ fun path ->
  let partial =
    Kf_ml.Linreg_cg.fit ~max_iterations:4 ~checkpoint:(path, 2) device
      input ~targets
  in
  Alcotest.(check bool) "partial run stopped early" true
    (partial.Kf_ml.Linreg_cg.iterations
    < reference.Kf_ml.Linreg_cg.iterations);
  let resumed = Kf_ml.Linreg_cg.fit ~resume:path device input ~targets in
  Alcotest.(check bool) "weights bit-identical" true
    (bits_equal reference.Kf_ml.Linreg_cg.weights
       resumed.Kf_ml.Linreg_cg.weights);
  Alcotest.(check int) "iteration count agrees" reference.Kf_ml.Linreg_cg.iterations
    resumed.Kf_ml.Linreg_cg.iterations

let test_resume_glm () =
  let input, raw = mk_regression 22 in
  let targets = Array.map (fun t -> Float.round (exp (0.02 *. t))) raw in
  let reference = Kf_ml.Glm.fit device input ~targets in
  with_tmp @@ fun path ->
  ignore
    (Kf_ml.Glm.fit ~newton_iterations:3 ~checkpoint:(path, 1) device input
       ~targets);
  let resumed = Kf_ml.Glm.fit ~resume:path device input ~targets in
  Alcotest.(check bool) "weights bit-identical" true
    (bits_equal reference.Kf_ml.Glm.weights resumed.Kf_ml.Glm.weights)

let test_resume_logreg () =
  let input, raw = mk_regression 23 in
  let labels = Kf_ml.Dataset.classification_targets raw in
  let reference = Kf_ml.Logreg.fit device input ~labels in
  with_tmp @@ fun path ->
  ignore
    (Kf_ml.Logreg.fit ~newton_iterations:2 ~checkpoint:(path, 1) device
       input ~labels);
  let resumed = Kf_ml.Logreg.fit ~resume:path device input ~labels in
  Alcotest.(check bool) "weights bit-identical" true
    (bits_equal reference.Kf_ml.Logreg.weights
       resumed.Kf_ml.Logreg.weights)

let test_resume_svm () =
  let input, raw = mk_regression 24 in
  let labels = Kf_ml.Dataset.classification_targets raw in
  let reference = Kf_ml.Svm.fit device input ~labels in
  with_tmp @@ fun path ->
  ignore
    (Kf_ml.Svm.fit ~newton_iterations:2 ~checkpoint:(path, 1) device input
       ~labels);
  let resumed = Kf_ml.Svm.fit ~resume:path device input ~labels in
  Alcotest.(check bool) "weights bit-identical" true
    (bits_equal reference.Kf_ml.Svm.weights resumed.Kf_ml.Svm.weights)

let test_resume_hits () =
  let a = Kf_ml.Dataset.adjacency (Rng.create 25) ~nodes:80 ~out_degree:6 in
  let reference = Kf_ml.Hits.run device a in
  with_tmp @@ fun path ->
  ignore (Kf_ml.Hits.run ~iterations:3 ~checkpoint:(path, 1) device a);
  let resumed = Kf_ml.Hits.run ~resume:path device a in
  Alcotest.(check bool) "authorities bit-identical" true
    (bits_equal reference.Kf_ml.Hits.authorities
       resumed.Kf_ml.Hits.authorities);
  Alcotest.(check bool) "hubs bit-identical" true
    (bits_equal reference.Kf_ml.Hits.hubs resumed.Kf_ml.Hits.hubs)

let test_resume_multinomial () =
  let input, raw = mk_regression 26 in
  let labels =
    Array.map (fun t -> if t < -0.5 then 0 else if t < 0.5 then 1 else 2) raw
  in
  let reference = Kf_ml.Multinomial.fit device input ~labels ~classes:3 in
  with_tmp @@ fun path ->
  (* a run killed after class 0: its checkpoint holds exactly the
     one-vs-rest solve the full fit performs for that class *)
  let binary = Array.map (fun l -> if l = 0 then 1.0 else -1.0) labels in
  let r0 =
    Kf_ml.Logreg.fit ~lambda:1.0 ~newton_iterations:10 ~cg_iterations:20
      device input ~labels:binary
  in
  Ckpt.write ~path ~algorithm:"LogReg-multinomial" ~iteration:1
    [
      ("mn.classes_done", Ckpt.Int 1);
      ("mn.weights", Ckpt.Floats r0.Kf_ml.Logreg.weights);
      ("mn.gpu_ms", Ckpt.Float r0.Kf_ml.Logreg.gpu_ms);
      ("mn.trace", Ckpt.Ints [||]);
    ];
  let resumed =
    Kf_ml.Multinomial.fit ~resume:path device input ~labels ~classes:3
  in
  Array.iteri
    (fun k w ->
      Alcotest.(check bool)
        (Printf.sprintf "class %d weights bit-identical" k)
        true
        (bits_equal w resumed.Kf_ml.Multinomial.class_weights.(k)))
    reference.Kf_ml.Multinomial.class_weights

let test_resume_algorithm_mismatch () =
  let input, targets = mk_regression 27 in
  with_tmp @@ fun path ->
  ignore
    (Kf_ml.Linreg_cg.fit ~max_iterations:2 ~checkpoint:(path, 1) device
       input ~targets);
  (match
     Kf_ml.Glm.fit ~resume:path device input
       ~targets:(Array.map abs_float targets)
   with
  | (_ : Kf_ml.Glm.result) ->
      Alcotest.fail "GLM accepted a CG checkpoint"
  | exception Invalid_argument _ -> ());
  match
    Kf_ml.Multinomial.fit ~resume:path device input
      ~labels:(Array.map (fun _ -> 0) targets)
      ~classes:2
  with
  | (_ : Kf_ml.Multinomial.result) ->
      Alcotest.fail "Multinomial accepted a CG checkpoint"
  | exception Invalid_argument _ -> ()

(* Checkpoint cadence writes under fault injection still resume exactly:
   the end-to-end chaos + checkpoint composition. *)
let test_resume_under_faults () =
  let input, targets = mk_regression 28 in
  let reference = Kf_ml.Linreg_cg.fit device input ~targets in
  with_tmp @@ fun path ->
  Fault.with_config "launch:every=7:seed=4,trunc:every=3:seed=1" (fun () ->
      ignore
        (Kf_ml.Linreg_cg.fit ~max_iterations:6 ~checkpoint:(path, 2)
           device input ~targets);
      let resumed =
        Kf_ml.Linreg_cg.fit ~resume:path device input ~targets
      in
      Alcotest.(check bool) "weights bit-identical under faults" true
        (bits_equal reference.Kf_ml.Linreg_cg.weights
           resumed.Kf_ml.Linreg_cg.weights))

(* A recovery scope arms its own domain only: guarded ops issued from
   two domains at once must neither lose each other's depth nor arm
   each other's unguarded calls. *)
let test_arm_is_per_domain () =
  Fault.with_arm (fun () ->
      Alcotest.(check bool) "armed inside the scope" true (Fault.armed ());
      Alcotest.(check bool)
        "another domain is not armed" false
        (Domain.join (Domain.spawn Fault.armed)));
  let other () =
    for _ = 1 to 10_000 do
      Fault.with_arm ignore
    done
  in
  let d = Domain.spawn other in
  other ();
  Domain.join d;
  Alcotest.(check bool) "disarmed after concurrent scopes" false
    (Fault.armed ())

let suite =
  [
    Alcotest.test_case "fault-spec parsing" `Quick test_spec_parsing;
    QCheck_alcotest.to_alcotest test_chaos_differential;
    Alcotest.test_case "NaN poisoning healed by retry" `Quick
      test_nan_retry_recovers;
    Alcotest.test_case "reference floor after exhausted retries" `Quick
      test_reference_floor;
    Alcotest.test_case "guards detect non-finite outputs" `Quick
      test_guard_detects;
    Alcotest.test_case "pool domain crash recovers" `Quick
      test_pool_crash_recovers;
    Alcotest.test_case "allocation failure recovers by eviction" `Quick
      test_alloc_recovery;
    QCheck_alcotest.to_alcotest test_ckpt_roundtrip;
    Alcotest.test_case "checkpoint file roundtrip" `Quick
      test_ckpt_file_roundtrip;
    Alcotest.test_case "truncated checkpoint rejected" `Quick
      test_ckpt_truncated;
    Alcotest.test_case "checksum mismatch rejected" `Quick
      test_ckpt_checksum_mismatch;
    Alcotest.test_case "version skew rejected" `Quick test_ckpt_version_skew;
    Alcotest.test_case "injected write truncation self-heals" `Quick
      test_ckpt_write_self_heals;
    Alcotest.test_case "FNV-1a 64 known answers" `Quick test_fnv_known_answers;
    Alcotest.test_case "checkpoint file bytes are stable" `Quick
      test_ckpt_file_bytes_stable;
    Alcotest.test_case "decode refuses counts the bytes cannot back" `Quick
      test_ckpt_decode_oversized_count;
    Alcotest.test_case "checkpoint write and read allocate <= 3x the file"
      `Quick test_ckpt_allocation_bounded;
    Alcotest.test_case "kill/resume LR-CG bit-exact" `Quick test_resume_lr;
    Alcotest.test_case "kill/resume GLM bit-exact" `Quick test_resume_glm;
    Alcotest.test_case "kill/resume LogReg bit-exact" `Quick
      test_resume_logreg;
    Alcotest.test_case "kill/resume SVM bit-exact" `Quick test_resume_svm;
    Alcotest.test_case "kill/resume HITS bit-exact" `Quick test_resume_hits;
    Alcotest.test_case "kill/resume multinomial bit-exact" `Quick
      test_resume_multinomial;
    Alcotest.test_case "resume rejects foreign checkpoints" `Quick
      test_resume_algorithm_mismatch;
    Alcotest.test_case "checkpoint + chaos compose" `Quick
      test_resume_under_faults;
    Alcotest.test_case "recovery scope is per domain" `Quick
      test_arm_is_per_domain;
  ]
