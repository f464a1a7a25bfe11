(* SystemML-integration substrate: memory manager invariants, scheduler
   decisions, and the end-to-end runtimes behind Tables 5 and 6. *)
open Gpu_sim

let device = Device.gtx_titan
let cpu = Device.core_i7_host

(* --- Memory manager --- *)

let mb n = n * 1024 * 1024

let test_mm_upload_then_hit () =
  let mm = Sysml.Memmgr.create device in
  let c1 = Sysml.Memmgr.ensure_resident mm ~key:"X" ~bytes:(mb 100) ~needs_conversion:false in
  Alcotest.(check bool) "upload costs time" true (c1 > 0.0);
  let c2 = Sysml.Memmgr.ensure_resident mm ~key:"X" ~bytes:(mb 100) ~needs_conversion:false in
  Alcotest.(check (float 1e-12)) "hit is free" 0.0 c2;
  let s = Sysml.Memmgr.stats mm in
  Alcotest.(check int) "one upload" 1 s.Sysml.Memmgr.uploads;
  Alcotest.(check int) "one hit" 1 s.Sysml.Memmgr.hits

let test_mm_conversion_charged () =
  let mm = Sysml.Memmgr.create device in
  let plain = Sysml.Memmgr.ensure_resident mm ~key:"a" ~bytes:(mb 100) ~needs_conversion:false in
  let converted = Sysml.Memmgr.ensure_resident mm ~key:"b" ~bytes:(mb 100) ~needs_conversion:true in
  Alcotest.(check bool) "JNI conversion adds cost" true (converted > plain)

let test_mm_eviction () =
  let mm = Sysml.Memmgr.create device in
  (* fill 6GB device memory with 1GB blocks, then one more *)
  for i = 1 to 6 do
    ignore
      (Sysml.Memmgr.ensure_resident mm
         ~key:(Printf.sprintf "blk%d" i)
         ~bytes:(mb 1024) ~needs_conversion:false)
  done;
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"extra" ~bytes:(mb 1024) ~needs_conversion:false);
  let s = Sysml.Memmgr.stats mm in
  Alcotest.(check bool) "evicted at least once" true (s.Sysml.Memmgr.evictions >= 1);
  Alcotest.(check bool) "within capacity" true
    (Sysml.Memmgr.resident_bytes mm <= device.Device.global_mem_bytes)

let test_mm_evicts_lru () =
  let mm = Sysml.Memmgr.create device in
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"old" ~bytes:(mb 3000) ~needs_conversion:false);
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"young" ~bytes:(mb 2000) ~needs_conversion:false);
  (* touch old so young becomes LRU *)
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"old" ~bytes:(mb 3000) ~needs_conversion:false);
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"new" ~bytes:(mb 2000) ~needs_conversion:false);
  (* old must still be resident: re-request is a hit *)
  let before = (Sysml.Memmgr.stats mm).Sysml.Memmgr.hits in
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"old" ~bytes:(mb 3000) ~needs_conversion:false);
  Alcotest.(check int) "old survived (LRU evicts young)" (before + 1)
    (Sysml.Memmgr.stats mm).Sysml.Memmgr.hits

let test_mm_dirty_eviction_downloads () =
  let mm = Sysml.Memmgr.create device in
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"w" ~bytes:(mb 4000) ~needs_conversion:false);
  Sysml.Memmgr.touch_dirty mm ~key:"w";
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"big" ~bytes:(mb 4000) ~needs_conversion:false);
  let s = Sysml.Memmgr.stats mm in
  Alcotest.(check int) "dirty eviction downloads" 1 s.Sysml.Memmgr.downloads

let test_mm_oversize_rejected () =
  let mm = Sysml.Memmgr.create device in
  Alcotest.check_raises "too large"
    (Invalid_argument "Memmgr.ensure_resident: block larger than device memory")
    (fun () ->
      ignore
        (Sysml.Memmgr.ensure_resident mm ~key:"huge" ~bytes:(mb 8000)
           ~needs_conversion:false))

let test_mm_release () =
  let mm = Sysml.Memmgr.create device in
  ignore (Sysml.Memmgr.ensure_resident mm ~key:"t" ~bytes:(mb 10) ~needs_conversion:false);
  Sysml.Memmgr.release mm ~key:"t";
  Alcotest.(check int) "freed" 0 (Sysml.Memmgr.resident_bytes mm)

(* --- Scheduler --- *)

let test_sched_prefers_cpu_for_one_shot () =
  (* tiny kernel win, huge transfer: stay on the CPU *)
  let d =
    Sysml.Sched.decide ~cpu_ms:1.0 ~gpu_kernel_ms:0.5
      ~pending_transfer_bytes:(mb 500) device
  in
  Alcotest.(check bool) "cpu" true (d.Sysml.Sched.place = Sysml.Sched.Cpu)

let test_sched_prefers_gpu_when_resident () =
  let d =
    Sysml.Sched.decide ~cpu_ms:1.0 ~gpu_kernel_ms:0.5 ~pending_transfer_bytes:0
      device
  in
  Alcotest.(check bool) "gpu" true (d.Sysml.Sched.place = Sysml.Sched.Gpu)

let test_sched_amortisation () =
  (* the same transfer becomes worthwhile across many iterations *)
  let once =
    Sysml.Sched.decide_iterative ~cpu_ms_per_iter:1.0
      ~gpu_kernel_ms_per_iter:0.2 ~one_time_transfer_bytes:(mb 500)
      ~iterations:1 device
  in
  let hundred =
    Sysml.Sched.decide_iterative ~cpu_ms_per_iter:1.0
      ~gpu_kernel_ms_per_iter:0.2 ~one_time_transfer_bytes:(mb 500)
      ~iterations:100 device
  in
  Alcotest.(check bool) "1 iteration: cpu" true
    (once.Sysml.Sched.place = Sysml.Sched.Cpu);
  Alcotest.(check bool) "100 iterations: gpu" true
    (hundred.Sysml.Sched.place = Sysml.Sched.Gpu)

(* --- End-to-end runtimes --- *)

let small_dataset seed =
  let rng = Matrix.Rng.create seed in
  Kf_ml.Dataset.synthetic_sparse rng ~rows:20_000 ~cols:512

(* Table 6's phenomenon needs enough data for the kernel win to show
   through the fixed per-iteration overheads, as in the paper's multi-GB
   data sets. *)
let medium_dataset seed =
  let rng = Matrix.Rng.create seed in
  Kf_ml.Dataset.synthetic_sparse rng ~rows:100_000 ~cols:512

let test_standalone_speedup () =
  let r = Sysml.Runtime.standalone ~max_iterations:20 device (small_dataset 1) in
  Alcotest.(check bool) "fused end-to-end wins" true (r.Sysml.Runtime.speedup > 1.5);
  Alcotest.(check bool) "transfer counted" true (r.Sysml.Runtime.transfer_ms > 0.0);
  Alcotest.(check bool) "totals consistent" true
    (Float.abs
       (r.Sysml.Runtime.fused_total_ms
       -. (r.Sysml.Runtime.transfer_ms +. r.Sysml.Runtime.fused_ms))
    < 1e-9)

let test_standalone_amortisation_helps () =
  let short = Sysml.Runtime.standalone ~max_iterations:2 device (small_dataset 2) in
  let long = Sysml.Runtime.standalone ~max_iterations:50 device (small_dataset 2) in
  Alcotest.(check bool) "more iterations amortise the transfer" true
    (long.Sysml.Runtime.speedup > short.Sysml.Runtime.speedup)

let test_systemml_overheads_shrink_speedup () =
  let d = medium_dataset 3 in
  let r = Sysml.Runtime.systemml ~max_iterations:20 device cpu d in
  Alcotest.(check bool) "kernel speedup exceeds total (Table 6)" true
    (r.Sysml.Runtime.kernel_speedup > r.Sysml.Runtime.total_speedup);
  Alcotest.(check bool) "still an end-to-end win" true
    (r.Sysml.Runtime.total_speedup > 1.0);
  Alcotest.(check bool) "overheads positive" true (r.Sysml.Runtime.overhead_ms > 0.0);
  Alcotest.(check int) "matrix uploaded once" 1 r.Sysml.Runtime.mm.Sysml.Memmgr.uploads

(* --- strict CLI environment parsing ------------------------------------- *)

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:""))
    f

let test_env_int () =
  Alcotest.(check (result (option int) string))
    "unset is None" (Ok None)
    (Sysml.Env.int_result "KF_TEST_UNSET_VARIABLE");
  with_env "KF_TEST_ENV" " 42 " (fun () ->
      Alcotest.(check (result (option int) string))
        "whitespace-tolerant parse"
        (Ok (Some 42))
        (Sysml.Env.int_result ~min:1 ~max:64 "KF_TEST_ENV"));
  with_env "KF_TEST_ENV" "three" (fun () ->
      Alcotest.(check (result (option int) string))
        "garbage carries the uniform message"
        (Error "kf: KF_TEST_ENV must be an integer between 1 and 64, got \"three\"")
        (Sysml.Env.int_result ~min:1 ~max:64 "KF_TEST_ENV"));
  with_env "KF_TEST_ENV" "0" (fun () ->
      Alcotest.(check (result (option int) string))
        "out-of-range names the bound"
        (Error "kf: KF_TEST_ENV must be an integer >= 1, got 0")
        (Sysml.Env.int_result ~min:1 "KF_TEST_ENV"))

let test_env_float () =
  with_env "KF_TEST_ENV" "0.25" (fun () ->
      Alcotest.(check (result (option (float 1e-12)) string))
        "a rate parses"
        (Ok (Some 0.25))
        (Sysml.Env.float_result ~min:0.0 ~max:1.0 "KF_TEST_ENV"));
  with_env "KF_TEST_ENV" "nan" (fun () ->
      Alcotest.(check bool) "non-finite is rejected" true
        (Result.is_error (Sysml.Env.float_result "KF_TEST_ENV")));
  with_env "KF_TEST_ENV" "1.5" (fun () ->
      Alcotest.(check (result (option (float 1e-12)) string))
        "bounds text for floats"
        (Error "kf: KF_TEST_ENV must be a number between 0 and 1, got 1.5")
        (Sysml.Env.float_result ~min:0.0 ~max:1.0 "KF_TEST_ENV"))

let test_env_host_variant () =
  with_env "KF_TEST_ENV" " blocked " (fun () ->
      Alcotest.(check bool) "a known name parses" true
        (Sysml.Env.host_variant_result "KF_TEST_ENV"
        = Ok (Some Fusion.Host_fused.Blocked)));
  with_env "KF_TEST_ENV" "col-partition" (fun () ->
      match Sysml.Env.host_variant_result "KF_TEST_ENV" with
      | Ok _ -> Alcotest.fail "a removed variant name was accepted"
      | Error msg ->
          Alcotest.(check string) "the message lists the accepted names"
            "kf: KF_TEST_ENV must be one of dense-acc, blocked, got \"col-partition\""
            msg)

let suite =
  [
    Alcotest.test_case "memmgr: upload then hit" `Quick test_mm_upload_then_hit;
    Alcotest.test_case "memmgr: conversion charged" `Quick
      test_mm_conversion_charged;
    Alcotest.test_case "memmgr: eviction" `Quick test_mm_eviction;
    Alcotest.test_case "memmgr: LRU policy" `Quick test_mm_evicts_lru;
    Alcotest.test_case "memmgr: dirty eviction downloads" `Quick
      test_mm_dirty_eviction_downloads;
    Alcotest.test_case "memmgr: oversize rejected" `Quick
      test_mm_oversize_rejected;
    Alcotest.test_case "memmgr: release" `Quick test_mm_release;
    Alcotest.test_case "sched: one-shot stays on cpu" `Quick
      test_sched_prefers_cpu_for_one_shot;
    Alcotest.test_case "sched: resident goes to gpu" `Quick
      test_sched_prefers_gpu_when_resident;
    Alcotest.test_case "sched: amortisation" `Quick test_sched_amortisation;
    Alcotest.test_case "runtime: standalone speedup (Table 5)" `Quick
      test_standalone_speedup;
    Alcotest.test_case "runtime: amortisation (Table 5)" `Quick
      test_standalone_amortisation_helps;
    Alcotest.test_case "runtime: SystemML overheads (Table 6)" `Quick
      test_systemml_overheads_shrink_speedup;
    Alcotest.test_case "env: strict integers" `Quick test_env_int;
    Alcotest.test_case "env: strict floats" `Quick test_env_float;
    Alcotest.test_case "env: strict host variants" `Quick test_env_host_variant;
  ]
