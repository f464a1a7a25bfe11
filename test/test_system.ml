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

(* --- the KF_* table (Kf_obs.Env) ----------------------------------------- *)

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:""))
    f

let declared name =
  List.find (fun (v : Kf_obs.Env.info) -> v.name = name) (Kf_obs.Env.declared ())

(* [Error] carries the exact line [kf] prints before exiting 2. *)
let decode name raw =
  Result.map_error Kf_obs.Env.message ((declared name).check raw)

let decodes = Alcotest.(check (result unit string))

let malformed name expected got = Kf_obs.Env.Malformed { name; expected; got }

let test_env_int () =
  Alcotest.(check (result (option int) string))
    "whitespace-tolerant parse" (Ok (Some 42))
    (Result.map_error Kf_obs.Env.message
       (Kf_obs.Env.parse Kf_serve.Scrape.port_var " 42 "));
  Alcotest.(check (result (option int) string))
    "blank is unset" (Ok None)
    (Result.map_error Kf_obs.Env.message
       (Kf_obs.Env.parse Kf_serve.Scrape.port_var "  "));
  decodes "garbage carries the uniform message"
    (Error "kf: KF_WORKERS must be an integer between 1 and 64, got \"three\"")
    (decode "KF_WORKERS" "three");
  decodes "out-of-range names the bound"
    (Error "kf: KF_DOMAINS must be an integer >= 1, got 0")
    (decode "KF_DOMAINS" "0");
  decodes "an unbounded integer takes negatives" (Ok ())
    (decode "KF_TRACE_SEED" "-3")

let test_env_float () =
  decodes "a rate parses" (Ok ()) (decode "KF_TRACE_SAMPLE" "0.25");
  Alcotest.(check bool) "non-finite is rejected" true
    (Result.is_error (decode "KF_TRACE_SAMPLE" "nan"));
  decodes "bounds text for floats"
    (Error "kf: KF_TRACE_SAMPLE must be a number between 0 and 1, got 1.5")
    (decode "KF_TRACE_SAMPLE" "1.5");
  decodes "an exclusive bound"
    (Error "kf: KF_DIST_GBPS must be a number > 0, got 0")
    (decode "KF_DIST_GBPS" "0")

let test_env_enum () =
  decodes "enums are case- and space-tolerant" (Ok ())
    (decode "KF_DIST_MODE" " 1.5D ");
  decodes "the message lists the accepted names"
    (Error "kf: KF_DIST_MODE must be one of 1d, 1.5d, got \"2d\"")
    (decode "KF_DIST_MODE" "2d");
  decodes "booleans take every spelling" (Ok ()) (decode "KF_GUARDS" "No");
  decodes "a boolean is one of its spellings"
    (Error
       "kf: KF_GUARDS must be one of on, off, 1, 0, true, false, yes, no, got \
        \"maybe\"")
    (decode "KF_GUARDS" "maybe");
  decodes "a grammar appends its reason"
    (Error
       "kf: KF_FAULTS must be a fault spec (DESIGN.md section 10), got \
        \"bogus:p=1\" (fault rule \"bogus:p=1\": unknown fault kind \
        \"bogus\")")
    (decode "KF_FAULTS" "bogus:p=1")

(* One test per value kind: the library function that reads the
   variable raises the typed error instead of falling back. *)

let test_reader_int () =
  with_env "KF_WORKERS" "three" (fun () ->
      Alcotest.check_raises "Cluster.default_size"
        (malformed "KF_WORKERS" "an integer between 1 and 64" {|"three"|})
        (fun () -> ignore (Kf_dist.Cluster.default_size ())))

let test_reader_float () =
  let rate = Kf_obs.Trace.sample_rate () in
  with_env "KF_TRACE_SAMPLE" "2" (fun () ->
      Alcotest.check_raises "Trace.sample_of_env"
        (malformed "KF_TRACE_SAMPLE" "a number between 0 and 1" "2")
        Kf_obs.Trace.sample_of_env);
  Alcotest.(check (float 0.0)) "the sampler is untouched" rate
    (Kf_obs.Trace.sample_rate ());
  with_env "KF_DIST_GBPS" "0" (fun () ->
      Alcotest.check_raises "Netmodel.of_env"
        (malformed "KF_DIST_GBPS" "a number > 0" "0")
        (fun () -> ignore (Kf_dist.Netmodel.of_env ())))

let test_reader_bool () =
  let err =
    malformed "KF_GUARDS" "one of on, off, 1, 0, true, false, yes, no"
      {|"maybe"|}
  in
  (* the flag is latched: re-latch it from the restored environment *)
  Fun.protect ~finally:Kf_resil.Guard.reload (fun () ->
      with_env "KF_GUARDS" "maybe" (fun () ->
          Alcotest.check_raises "Guard.reload" err Kf_resil.Guard.reload);
      with_env "KF_GUARDS" "off" Kf_resil.Guard.reload;
      Alcotest.(check bool) "off is latched" false (Kf_resil.Guard.enabled ()))

let test_reader_enum () =
  with_env "KF_DIST_MODE" "2d" (fun () ->
      Alcotest.check_raises "Cluster.forced_mode"
        (malformed "KF_DIST_MODE" "one of 1d, 1.5d" {|"2d"|})
        (fun () -> ignore (Kf_dist.Cluster.forced_mode ())));
  with_env "KF_DIST_MODE" "1d" (fun () ->
      Alcotest.(check bool) "a valid layout is forced" true
        (Kf_dist.Cluster.forced_mode () = Some Kf_dist.Netmodel.One_d))

let test_reader_spec () =
  Kf_resil.Fault.with_config "" (fun () ->
      with_env "KF_FAULTS" "bogus:p=1" (fun () ->
          Alcotest.check_raises "Fault.reload"
            (malformed "KF_FAULTS" "a fault spec (DESIGN.md section 10)"
               ({|"bogus:p=1" (fault rule "bogus:p=1": |}
               ^ {|unknown fault kind "bogus")|}))
            Kf_resil.Fault.reload);
      Alcotest.(check bool) "a rejected spec installs nothing" false
        (Kf_resil.Fault.active ());
      with_env "KF_FAULTS" "nan:every=2:seed=1" Kf_resil.Fault.reload;
      Alcotest.(check bool) "a valid spec installs its rules" true
        (Kf_resil.Fault.active ()))

let test_check_all () =
  with_env "KF_GUARDS" "maybe" (fun () ->
      with_env "KF_DIST_MODE" "2d" (fun () ->
          match Kf_obs.Env.check_all () with
          | Error e ->
              Alcotest.(check string) "the first malformed name" "KF_DIST_MODE"
                e.name
          | Ok () -> Alcotest.fail "malformed variables passed the check"));
  with_env "KF_GUARDS" "" (fun () ->
      Alcotest.(check (result unit string))
        "an empty value is unset" (Ok ())
        (Result.map_error Kf_obs.Env.message (Kf_obs.Env.check_all ())))

(* README.md's environment table, row by row: variable, accepted
   values and default must be the declarations', and every declared
   variable needs a row.  The suite runs from the repository root or
   from dune's test directory. *)
let test_readme_table () =
  let strip s = String.trim (String.concat "" (String.split_on_char '`' s)) in
  let readme = List.find Sys.file_exists [ "README.md"; "../README.md" ] in
  let rows =
    In_channel.with_open_text readme In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match List.map strip (String.split_on_char '|' line) with
           | "" :: name :: accepted :: default :: _
             when String.starts_with ~prefix:"KF_" name ->
               Some (name, (accepted, default))
           | _ -> None)
  in
  let names l = List.sort compare (List.map fst l) in
  let table =
    List.map
      (fun (v : Kf_obs.Env.info) -> (v.name, (v.accepted, v.default)))
      (Kf_obs.Env.declared ())
  in
  Alcotest.(check (list string)) "one row per declared variable" (names table)
    (names rows);
  List.iter
    (fun (name, cells) ->
      Alcotest.(check (pair string string))
        (name ^ ": accepted values and default") (List.assoc name table) cells)
    rows

(* Every decoder returns a value or a typed error on any input — random
   bytes, and valid values spliced, truncated or bit-flipped.
   [Fault.parse] installs the rules it accepts, so it runs under
   [with_config], which puts the previous rules back. *)
let env_inputs =
  let valid =
    [ "3"; " 42 "; "-7"; "65535"; "0.25"; "1e-3"; "on"; "OFF"; "1.5d";
      "host"; "/tmp/t.json"; "nan:every=2:seed=1";
      "launch:p=0.05:seed=7,crash:after=3:times=2";
      "trunc:every=5:seed=1:point=ckpt" ]
  in
  let open QCheck.Gen in
  let cut s = int_bound (String.length s) in
  let mutated =
    let* s = oneofl valid in
    oneof
      [
        (let* t = oneofl valid in
         let* i = cut s and* j = cut t in
         return (String.sub s 0 i ^ String.sub t j (String.length t - j)));
        map (fun i -> String.sub s 0 i) (cut s);
        (if s = "" then return s
         else
           let* i = int_bound (String.length s - 1) and* bit = int_bound 7 in
           return
             (String.mapi
                (fun k c ->
                  if k = i then Char.chr (Char.code c lxor (1 lsl bit)) else c)
                s));
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof [ string; string_printable; mutated ])

let test_env_fuzz =
  QCheck.Test.make ~count:2000 ~name:"env: decoders never raise" env_inputs
    (fun raw ->
      List.iter
        (fun (v : Kf_obs.Env.info) -> ignore (v.check raw))
        (Kf_obs.Env.declared ());
      ignore
        (Kf_resil.Fault.with_config "" (fun () -> Kf_resil.Fault.parse raw));
      true)

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
    Alcotest.test_case "env: strict enums" `Quick test_env_enum;
    Alcotest.test_case "env: integer reader raises" `Quick test_reader_int;
    Alcotest.test_case "env: number reader raises" `Quick test_reader_float;
    Alcotest.test_case "env: boolean reader raises" `Quick test_reader_bool;
    Alcotest.test_case "env: enum reader raises" `Quick test_reader_enum;
    Alcotest.test_case "env: fault-spec reader raises" `Quick
      test_reader_spec;
    Alcotest.test_case "env: check_all" `Quick test_check_all;
    Alcotest.test_case "env: README table is the declared table" `Quick
      test_readme_table;
    QCheck_alcotest.to_alcotest test_env_fuzz;
  ]
