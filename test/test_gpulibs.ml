(* Simulated vendor libraries: numerical correctness against the CPU
   reference, plus the qualitative performance relations the baselines
   must exhibit (transpose mode slower than plain, contention falling
   with column count, load-count relations). *)
open Matrix
open Gpu_sim

let device = Device.gtx_titan
let cpu = Device.core_i7_host
let tot = Sim.total_ms

let data seed ~rows ~cols ~density =
  let rng = Rng.create seed in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density in
  let y = Gen.vector rng cols in
  let p = Gen.vector rng rows in
  (x, y, p)

(* --- correctness --- *)

let test_csrmv_correct () =
  let x, y, _ = data 1 ~rows:500 ~cols:120 ~density:0.05 in
  let got, _ = Gpulibs.Cusparse.csrmv device x y in
  Alcotest.(check bool) "csrmv" true (Vec.approx_equal got (Blas.csrmv x y))

let test_csrmv_t_correct () =
  let x, _, p = data 2 ~rows:500 ~cols:120 ~density:0.05 in
  let got, _ = Gpulibs.Cusparse.csrmv_t device x p in
  Alcotest.(check bool) "csrmv_t" true
    (Vec.approx_equal got (Blas.csrmv_t x p))

let test_csrmv_t_large_n_correct () =
  (* beyond 6144 columns the transpose-per-call path kicks in *)
  let x, _, p = data 3 ~rows:300 ~cols:10_000 ~density:0.002 in
  let got, reports = Gpulibs.Cusparse.csrmv_t device x p in
  Alcotest.(check bool) "large-n csrmv_t" true
    (Vec.approx_equal got (Blas.csrmv_t x p));
  Alcotest.(check bool) "uses csr2csc" true
    (List.exists (fun (r : Sim.report) -> r.kernel = "cusparse_csr2csc") reports)

let test_csr2csc_correct () =
  let x, _, _ = data 4 ~rows:200 ~cols:80 ~density:0.1 in
  let xt, _ = Gpulibs.Cusparse.csr2csc device x in
  Alcotest.(check bool) "transpose" true
    (Csr.approx_equal xt (Csr.transpose x))

let test_cublas_gemv_correct () =
  let rng = Rng.create 5 in
  let x = Gen.dense rng ~rows:300 ~cols:64 in
  let y = Gen.vector rng 64 in
  let got, _ = Gpulibs.Cublas.gemv device x y in
  Alcotest.(check bool) "gemv" true (Vec.approx_equal got (Blas.gemv x y))

let test_cublas_gemv_t_correct () =
  let rng = Rng.create 6 in
  let x = Gen.dense rng ~rows:300 ~cols:64 in
  let p = Gen.vector rng 300 in
  let got, _ = Gpulibs.Cublas.gemv_t device x p in
  Alcotest.(check bool) "gemv_t" true (Vec.approx_equal got (Blas.gemv_t x p))

let test_cublas_level1 () =
  let rng = Rng.create 7 in
  let x = Gen.vector rng 1000 and y = Gen.vector rng 1000 in
  let axpy, _ = Gpulibs.Cublas.axpy device 2.0 x y in
  let expected = Vec.copy y in
  Vec.axpy 2.0 x expected;
  Alcotest.(check bool) "axpy" true (Vec.approx_equal axpy expected);
  let d, _ = Gpulibs.Cublas.dot device x y in
  Alcotest.(check (float 1e-6)) "dot" (Vec.dot x y) d;
  let n, _ = Gpulibs.Cublas.nrm2 device x in
  Alcotest.(check (float 1e-6)) "nrm2" (Vec.nrm2 x) n;
  let s, _ = Gpulibs.Cublas.scal device 3.0 x in
  Alcotest.(check bool) "scal" true (Vec.approx_equal s (Vec.scale 3.0 x));
  let c, _ = Gpulibs.Cublas.copy device x in
  Alcotest.(check bool) "copy" true (Vec.approx_equal c x);
  let h, _ = Gpulibs.Cublas.mul_elementwise device x y in
  Alcotest.(check bool) "hadamard" true
    (Vec.approx_equal h (Vec.mul_elementwise x y))

let test_bidmat_correct () =
  let x, y, p = data 8 ~rows:400 ~cols:100 ~density:0.05 in
  let a, _ = Gpulibs.Bidmat.csrmv device x y in
  Alcotest.(check bool) "bidmat csrmv" true (Vec.approx_equal a (Blas.csrmv x y));
  let b, _ = Gpulibs.Bidmat.csrmv_t device x p in
  Alcotest.(check bool) "bidmat csrmv_t" true
    (Vec.approx_equal b (Blas.csrmv_t x p));
  let rng = Rng.create 9 in
  let xd = Gen.dense rng ~rows:200 ~cols:48 in
  let pd = Gen.vector rng 200 in
  let c, _ = Gpulibs.Bidmat.gemv_t device xd pd in
  Alcotest.(check bool) "bidmat gemv_t" true
    (Vec.approx_equal c (Blas.gemv_t xd pd))

(* --- performance relations the paper depends on --- *)

let test_transpose_mode_slower () =
  let x, y, p = data 10 ~rows:20_000 ~cols:1024 ~density:0.01 in
  let _, r_fwd = Gpulibs.Cusparse.csrmv device x y in
  let _, r_t = Gpulibs.Cusparse.csrmv_t device x p in
  Alcotest.(check bool) "X^T p much slower than X y" true
    (tot r_t > 3.0 *. tot r_fwd)

let test_cusparse_contention_falls_with_cols () =
  let time cols =
    let x, _, p = data 11 ~rows:20_000 ~cols ~density:0.01 in
    let _, r = Gpulibs.Cusparse.csrmv_t device x p in
    tot r /. float_of_int (Csr.nnz x)
  in
  Alcotest.(check bool) "per-nnz cost falls with n" true
    (time 256 > time 2048)

let test_gemv_t_slower_than_gemv () =
  let rng = Rng.create 12 in
  let x = Gen.dense rng ~rows:20_000 ~cols:256 in
  let y = Gen.vector rng 256 and p = Gen.vector rng 20_000 in
  let _, r1 = Gpulibs.Cublas.gemv device x y in
  let _, r2 = Gpulibs.Cublas.gemv_t device x p in
  Alcotest.(check bool) "transpose pays bank conflicts" true
    (tot r2 > tot r1)

let test_bidmat_dense_beats_cublas () =
  let rng = Rng.create 13 in
  let x = Gen.dense rng ~rows:20_000 ~cols:256 in
  let p = Gen.vector rng 20_000 in
  let _, rc = Gpulibs.Cublas.gemv_t device x p in
  let _, rb = Gpulibs.Bidmat.gemv_t device x p in
  Alcotest.(check bool) "register tiling beats shared staging" true
    (tot rb < tot rc)

let test_bidmat_sparse_between () =
  let x, _, p = data 14 ~rows:50_000 ~cols:1024 ~density:0.01 in
  let _, rc = Gpulibs.Cusparse.csrmv_t device x p in
  let _, rb = Gpulibs.Bidmat.csrmv_t device x p in
  Alcotest.(check bool) "bidmat scatter beats cusparse workspace" true
    (tot rb < tot rc)

(* --- contention estimation --- *)

let test_second_moment_uniform () =
  let x, _, _ = data 15 ~rows:5000 ~cols:1000 ~density:0.01 in
  let sm = Gpulibs.Contention.column_second_moment x in
  Alcotest.(check bool) "~1/cols for uniform" true
    (sm > 0.5 /. 1000.0 && sm < 3.0 /. 1000.0)

let test_second_moment_skewed_higher () =
  let rng = Rng.create 16 in
  let skewed =
    Gen.sparse_mixture rng ~rows:5000 ~cols:1000 ~nnz_per_row:10
      ~hot_fraction:0.9 ~hot_cols:10 ()
  in
  let uniform, _, _ = data 15 ~rows:5000 ~cols:1000 ~density:0.01 in
  Alcotest.(check bool) "skew raises the second moment" true
    (Gpulibs.Contention.column_second_moment skewed
    > 5.0 *. Gpulibs.Contention.column_second_moment uniform)

let test_popularity_l2_hit_bounds () =
  let x, _, _ = data 17 ~rows:2000 ~cols:500 ~density:0.02 in
  let hit = Gpulibs.Contention.popularity_l2_hit device x in
  Alcotest.(check bool) "in [0,1]" true (hit >= 0.0 && hit <= 1.0);
  (* 500 columns trivially fit the L2 budget *)
  Alcotest.(check (float 1e-9)) "small vector fully resident" 1.0 hit

(* --- CPU model --- *)

let test_cpu_model_positive_and_monotone () =
  let small, _, _ = data 18 ~rows:5000 ~cols:500 ~density:0.01 in
  let large, _, _ = data 18 ~rows:50_000 ~cols:500 ~density:0.01 in
  let t_small = Gpulibs.Cpu_model.csrmv_ms cpu small in
  let t_large = Gpulibs.Cpu_model.csrmv_ms cpu large in
  Alcotest.(check bool) "positive" true (t_small > 0.0);
  Alcotest.(check bool) "10x data, more time" true (t_large > 5.0 *. t_small)

let test_cpu_pattern_composition () =
  let x, _, _ = data 19 ~rows:10_000 ~cols:800 ~density:0.01 in
  let bare = Gpulibs.Cpu_model.pattern_sparse_ms cpu x ~with_v:false ~with_z:false in
  let full = Gpulibs.Cpu_model.pattern_sparse_ms cpu x ~with_v:true ~with_z:true in
  Alcotest.(check bool) "optional stages add cost" true (full > bare)

let test_cpu_dense_roofline () =
  let t1 = Gpulibs.Cpu_model.gemv_ms cpu ~rows:10_000 ~cols:100 in
  let t2 = Gpulibs.Cpu_model.gemv_ms cpu ~rows:10_000 ~cols:200 in
  Alcotest.(check bool) "scales with columns" true (t2 > 1.5 *. t1)

let prop_axpy_bits =
  QCheck.Test.make ~name:"cublas axpy = a*x + y per element, bit for bit"
    ~count:300 Test_vec.scalar_and_pair (fun (a, x, y) ->
      let out, _ = Gpulibs.Cublas.axpy device a x y in
      Test_vec.same_bits out
        (Array.init (Array.length x) (fun i -> (a *. x.(i)) +. y.(i))))

let suite =
  [
    Alcotest.test_case "cusparse csrmv correct" `Quick test_csrmv_correct;
    Alcotest.test_case "cusparse csrmv_t correct" `Quick test_csrmv_t_correct;
    Alcotest.test_case "cusparse csrmv_t large-n path" `Quick
      test_csrmv_t_large_n_correct;
    Alcotest.test_case "cusparse csr2csc correct" `Quick test_csr2csc_correct;
    Alcotest.test_case "cublas gemv correct" `Quick test_cublas_gemv_correct;
    Alcotest.test_case "cublas gemv_t correct" `Quick
      test_cublas_gemv_t_correct;
    Alcotest.test_case "cublas level-1 correct" `Quick test_cublas_level1;
    Alcotest.test_case "bidmat correct" `Quick test_bidmat_correct;
    Alcotest.test_case "transpose mode slower (paper)" `Quick
      test_transpose_mode_slower;
    Alcotest.test_case "contention falls with columns (paper)" `Quick
      test_cusparse_contention_falls_with_cols;
    Alcotest.test_case "gemv_t slower than gemv (paper)" `Quick
      test_gemv_t_slower_than_gemv;
    Alcotest.test_case "bidmat dense beats cublas (paper)" `Quick
      test_bidmat_dense_beats_cublas;
    Alcotest.test_case "bidmat sparse between (paper)" `Quick
      test_bidmat_sparse_between;
    Alcotest.test_case "second moment: uniform" `Quick
      test_second_moment_uniform;
    Alcotest.test_case "second moment: skew" `Quick
      test_second_moment_skewed_higher;
    Alcotest.test_case "popularity hit bounds" `Quick
      test_popularity_l2_hit_bounds;
    Alcotest.test_case "cpu model monotone" `Quick
      test_cpu_model_positive_and_monotone;
    Alcotest.test_case "cpu pattern composition" `Quick
      test_cpu_pattern_composition;
    Alcotest.test_case "cpu dense roofline" `Quick test_cpu_dense_roofline;
    QCheck_alcotest.to_alcotest prop_axpy_bits;
  ]
