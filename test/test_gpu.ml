(* GPU simulator: occupancy calculator (checked against the paper's
   worked example and CUDA-calculator values), coalescing model, caches,
   launch validation, cost model monotonicity, transfer ledger, RNG. *)
open Gpu_sim

let device = Device.gtx_titan

(* --- Occupancy --- *)

let occ = Occupancy.calculate device

let test_occupancy_paper_example () =
  (* Section 4.3: sparse kernel, 43 registers, BS=640, n=1024:
     shared = (640/8 + 1024) * 8 = 8832B -> 2 blocks/SM (28 blocks). *)
  let r = occ ~block_size:640 ~regs_per_thread:43 ~shared_per_block:8832 in
  Alcotest.(check int) "2 blocks per SM" 2 r.Occupancy.active_blocks_per_sm;
  Alcotest.(check int) "40 warps" 40 r.Occupancy.active_warps_per_sm

let test_occupancy_full () =
  let r = occ ~block_size:256 ~regs_per_thread:32 ~shared_per_block:0 in
  Alcotest.(check (float 1e-9)) "100%" 1.0 r.Occupancy.occupancy

let test_occupancy_register_limited () =
  let r = occ ~block_size:256 ~regs_per_thread:128 ~shared_per_block:0 in
  Alcotest.(check bool) "register limited" true
    (r.Occupancy.limited_by = Occupancy.Registers);
  (* 128 regs * 32 = 4096/warp; 16 warps fit; 2 blocks of 8 warps *)
  Alcotest.(check int) "2 blocks" 2 r.Occupancy.active_blocks_per_sm

let test_occupancy_shared_limited () =
  let r = occ ~block_size:128 ~regs_per_thread:24 ~shared_per_block:20000 in
  Alcotest.(check bool) "shared limited" true
    (r.Occupancy.limited_by = Occupancy.Shared_memory);
  Alcotest.(check int) "2 blocks (48K/20K)" 2 r.Occupancy.active_blocks_per_sm

let test_occupancy_block_slot_limited () =
  let r = occ ~block_size:32 ~regs_per_thread:16 ~shared_per_block:0 in
  Alcotest.(check bool) "block slots" true
    (r.Occupancy.limited_by = Occupancy.Blocks);
  Alcotest.(check int) "8 blocks max" 8 r.Occupancy.active_blocks_per_sm

let test_occupancy_rejects_oversize () =
  Alcotest.(check bool) "block too large" false
    (Occupancy.can_launch device ~block_size:2048 ~regs_per_thread:32
       ~shared_per_block:0);
  Alcotest.(check bool) "too much shared" false
    (Occupancy.can_launch device ~block_size:128 ~regs_per_thread:32
       ~shared_per_block:(64 * 1024));
  Alcotest.(check bool) "too many registers" false
    (Occupancy.can_launch device ~block_size:128 ~regs_per_thread:300
       ~shared_per_block:0)

let test_best_block_size () =
  let bs, r =
    Occupancy.best_block_size device ~regs_per_thread:32
      ~shared_per_block:(fun ~block_size -> block_size * 8)
      ~candidates:[ 64; 128; 256; 512 ]
  in
  Alcotest.(check bool) "launchable" true (r.Occupancy.occupancy > 0.0);
  Alcotest.(check bool) "prefers larger on tie" true (bs >= 256)

let prop_occupancy_monotone_registers =
  QCheck.Test.make ~name:"more registers never increase occupancy" ~count:100
    QCheck.(pair (int_range 1 7) (int_range 20 120))
    (fun (warps, regs) ->
      let block_size = warps * 32 in
      let o1 = occ ~block_size ~regs_per_thread:regs ~shared_per_block:0 in
      let o2 =
        occ ~block_size ~regs_per_thread:(regs + 16) ~shared_per_block:0
      in
      o2.Occupancy.occupancy <= o1.Occupancy.occupancy +. 1e-12)

let prop_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy in (0,1]" ~count:200
    QCheck.(triple (int_range 1 32) (int_range 16 255) (int_range 0 48000))
    (fun (warps, regs, shared) ->
      match occ ~block_size:(warps * 32) ~regs_per_thread:regs
              ~shared_per_block:shared with
      | r -> r.Occupancy.occupancy > 0.0 && r.Occupancy.occupancy <= 1.0
      | exception Invalid_argument _ -> true)

(* --- Coalescing --- *)

let test_segment_aligned () =
  (* 16 doubles starting at 0 = exactly one 128B line *)
  Alcotest.(check int) "one line" 1
    (Coalesce.segment ~transaction_bytes:128 ~bytes_per_elt:8 ~start:0
       ~count:16)

let test_segment_straddles () =
  (* 16 doubles starting at 8 straddle two lines *)
  Alcotest.(check int) "two lines" 2
    (Coalesce.segment ~transaction_bytes:128 ~bytes_per_elt:8 ~start:8
       ~count:16)

let test_segment_empty () =
  Alcotest.(check int) "empty" 0
    (Coalesce.segment ~transaction_bytes:128 ~bytes_per_elt:8 ~start:5 ~count:0)

let test_gather_distinct_lines () =
  let indices = [| 0; 1; 16; 32; 33 |] in
  (* lines: 0,0,1,2,2 -> 3 distinct *)
  Alcotest.(check int) "3 lines" 3
    (Coalesce.gather_sorted ~transaction_bytes:128 ~bytes_per_elt:8 ~indices
       ~lo:0 ~hi:5)

let test_gather_worst_case () =
  let indices = Array.init 32 (fun i -> i * 16) in
  Alcotest.(check int) "fully scattered" 32
    (Coalesce.gather_sorted ~transaction_bytes:128 ~bytes_per_elt:8 ~indices
       ~lo:0 ~hi:32)

(* Reference: the distinct [idx * bytes_per_elt / transaction_bytes]
   lines. *)
let prop_gather_sorted_matches_gather =
  QCheck.Test.make ~name:"gather_sorted = gather on sorted input" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_range 0 5000))
    (fun l ->
      let indices = Array.of_list (List.sort compare l) in
      Coalesce.gather_sorted ~transaction_bytes:128 ~bytes_per_elt:8 ~indices
        ~lo:0 ~hi:(Array.length indices)
      = List.length
          (List.sort_uniq compare (List.map (fun i -> i * 8 / 128) l)))

let prop_gather_bounds =
  QCheck.Test.make ~name:"1 <= gather <= count" ~count:200
    QCheck.(list_of_size Gen.(1 -- 64) (int_range 0 10000))
    (fun l ->
      let indices = Array.of_list (List.sort compare l) in
      let n = Array.length indices in
      let t =
        Coalesce.gather_sorted ~transaction_bytes:128 ~bytes_per_elt:8 ~indices
          ~lo:0 ~hi:n
      in
      t >= 1 && t <= n)

let test_strided () =
  (* stride >= line: one transaction per element *)
  Alcotest.(check int) "strided" 8
    (Coalesce.strided ~transaction_bytes:128 ~bytes_per_elt:8 ~start:0
       ~stride:64 ~count:8)

(* --- Cache --- *)

let test_miss_fraction () =
  Alcotest.(check (float 1e-12)) "fits = no misses" 0.0
    (Cache.miss_fraction ~working_set_bytes:1000 ~capacity_bytes:2000);
  Alcotest.(check (float 1e-12)) "half capacity" 0.5
    (Cache.miss_fraction ~working_set_bytes:4000 ~capacity_bytes:2000)

let test_row_reuse_saturates () =
  let occupancy = occ ~block_size:640 ~regs_per_thread:43 ~shared_per_block:8832 in
  let hit =
    Cache.row_reuse_hit_fraction device ~occupancy ~grid_blocks:28 ~nv:80
      ~row_bytes:120
  in
  Alcotest.(check bool) "bounded by saturation" true (hit <= 0.65 && hit > 0.0)

let test_row_reuse_large_rows_miss () =
  let occupancy = occ ~block_size:640 ~regs_per_thread:43 ~shared_per_block:8832 in
  let hit =
    Cache.row_reuse_hit_fraction device ~occupancy ~grid_blocks:28 ~nv:80
      ~row_bytes:(1024 * 1024)
  in
  Alcotest.(check bool) "big rows mostly miss" true (hit < 0.01)

(* --- Launch --- *)

let test_launch_validation () =
  Alcotest.check_raises "vs must divide bs"
    (Invalid_argument "Launch: vs=7 must divide block_size=128") (fun () ->
      ignore
        (Launch.v ~grid_blocks:1 ~block_size:128 ~vs:7 ~coarsening:1
           ~regs_per_thread:32 ~shared_per_block:0 ()))

let test_grid_for_rows () =
  (* 100 rows, 4 vectors per block, C=2 -> 8 rows per block -> 13 blocks *)
  Alcotest.(check int) "grid" 13
    (Launch.grid_for_rows ~rows:100 ~block_size:128 ~vs:32 ~coarsening:2)

let prop_grid_covers_rows =
  QCheck.Test.make ~name:"grid covers all rows" ~count:200
    QCheck.(triple (int_range 1 100000) (int_range 0 4) (int_range 1 300))
    (fun (rows, vs_pow, coarsening) ->
      let vs = 1 lsl vs_pow in
      let block_size = 128 in
      let grid = Launch.grid_for_rows ~rows ~block_size ~vs ~coarsening in
      grid * (block_size / vs) * coarsening >= rows)

(* --- Cost model --- *)

let dummy_stats ~gld =
  let s = Stats.create () in
  s.Stats.gld_transactions <- gld;
  s

let test_cost_more_traffic_more_time () =
  let occupancy = occ ~block_size:256 ~regs_per_thread:32 ~shared_per_block:0 in
  let t1 =
    Cost_model.time device ~occupancy ~grid_blocks:28 (dummy_stats ~gld:1000)
  in
  let t2 =
    Cost_model.time device ~occupancy ~grid_blocks:28 (dummy_stats ~gld:100000)
  in
  Alcotest.(check bool) "monotone in traffic" true
    (t2.Cost_model.total_ms > t1.Cost_model.total_ms)

let test_cost_low_occupancy_slower () =
  let hi = occ ~block_size:256 ~regs_per_thread:32 ~shared_per_block:0 in
  let lo = occ ~block_size:64 ~regs_per_thread:250 ~shared_per_block:0 in
  Alcotest.(check bool) "occupancy ordering premise" true
    (lo.Occupancy.occupancy < hi.Occupancy.occupancy);
  let s = dummy_stats ~gld:1000000 in
  let t_hi = Cost_model.time device ~occupancy:hi ~grid_blocks:28 s in
  let t_lo = Cost_model.time device ~occupancy:lo ~grid_blocks:28 s in
  Alcotest.(check bool) "low occupancy is slower" true
    (t_lo.Cost_model.total_ms >= t_hi.Cost_model.total_ms)

let test_cost_launch_floor () =
  let occupancy = occ ~block_size:256 ~regs_per_thread:32 ~shared_per_block:0 in
  let t = Cost_model.time device ~occupancy ~grid_blocks:1 (Stats.create ()) in
  Alcotest.(check (float 1e-9)) "empty kernel = launch overhead"
    (device.Device.kernel_launch_us /. 1000.0)
    t.Cost_model.total_ms

let test_cost_add_scale () =
  let occupancy = occ ~block_size:256 ~regs_per_thread:32 ~shared_per_block:0 in
  let t = Cost_model.time device ~occupancy ~grid_blocks:28 (dummy_stats ~gld:5000) in
  let twice = Cost_model.add t t in
  Alcotest.(check (float 1e-9)) "add = scale 2"
    (Cost_model.scale 2.0 t).Cost_model.total_ms twice.Cost_model.total_ms

(* --- Stats --- *)

let test_stats_add () =
  let a = dummy_stats ~gld:10 and b = dummy_stats ~gld:32 in
  b.Stats.flops <- 7;
  Stats.add a b;
  Alcotest.(check int) "gld" 42 a.Stats.gld_transactions;
  Alcotest.(check int) "flops" 7 a.Stats.flops

let test_total_dram () =
  let s = dummy_stats ~gld:10 in
  s.Stats.gst_transactions <- 5;
  s.Stats.tex_misses <- 3;
  s.Stats.local_spill_transactions <- 2;
  Alcotest.(check int) "dram total" 20 (Stats.total_dram_transactions s)

(* --- Xfer --- *)

let test_xfer_ledger () =
  let ledger = Xfer.create device in
  let ms = Xfer.transfer ledger Xfer.Host_to_device ~bytes:120_000_000 ~label:"X" in
  Alcotest.(check bool) "120MB at 12GB/s = ~10ms" true (ms > 9.0 && ms < 12.0);
  Alcotest.(check int) "bytes recorded" 120_000_000 (Xfer.total_bytes ledger);
  ignore (Xfer.transfer ledger Xfer.Device_to_host ~bytes:8 ~label:"w");
  Alcotest.(check int) "two records" 2 (List.length (Xfer.records ledger));
  Xfer.reset ledger;
  Alcotest.(check (float 1e-12)) "reset" 0.0 (Xfer.total_ms ledger)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Matrix.Rng.create 1 and b = Matrix.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Matrix.Rng.bits a) (Matrix.Rng.bits b)
  done

let test_rng_bounds () =
  let rng = Matrix.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Matrix.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let u = Matrix.Rng.uniform rng in
    Alcotest.(check bool) "uniform in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Matrix.Rng.create 10 in
  let n = 20000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let g = Matrix.Rng.gaussian rng in
    sum := !sum +. g;
    sq := !sq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.1)

let test_rng_split_independent () =
  let parent = Matrix.Rng.create 11 in
  let child = Matrix.Rng.split parent in
  let a = Matrix.Rng.bits child and b = Matrix.Rng.bits parent in
  Alcotest.(check bool) "streams differ" true (a <> b)

let suite =
  [
    Alcotest.test_case "occupancy: paper worked example" `Quick
      test_occupancy_paper_example;
    Alcotest.test_case "occupancy: full" `Quick test_occupancy_full;
    Alcotest.test_case "occupancy: register limited" `Quick
      test_occupancy_register_limited;
    Alcotest.test_case "occupancy: shared limited" `Quick
      test_occupancy_shared_limited;
    Alcotest.test_case "occupancy: block slots" `Quick
      test_occupancy_block_slot_limited;
    Alcotest.test_case "occupancy: rejects impossible" `Quick
      test_occupancy_rejects_oversize;
    Alcotest.test_case "best block size" `Quick test_best_block_size;
    QCheck_alcotest.to_alcotest prop_occupancy_monotone_registers;
    QCheck_alcotest.to_alcotest prop_occupancy_bounded;
    Alcotest.test_case "coalesce: aligned segment" `Quick test_segment_aligned;
    Alcotest.test_case "coalesce: straddling segment" `Quick
      test_segment_straddles;
    Alcotest.test_case "coalesce: empty" `Quick test_segment_empty;
    Alcotest.test_case "coalesce: gather distinct" `Quick
      test_gather_distinct_lines;
    Alcotest.test_case "coalesce: gather worst case" `Quick
      test_gather_worst_case;
    QCheck_alcotest.to_alcotest prop_gather_sorted_matches_gather;
    QCheck_alcotest.to_alcotest prop_gather_bounds;
    Alcotest.test_case "coalesce: strided" `Quick test_strided;
    Alcotest.test_case "cache: miss fraction" `Quick test_miss_fraction;
    Alcotest.test_case "cache: row reuse saturates" `Quick
      test_row_reuse_saturates;
    Alcotest.test_case "cache: large rows miss" `Quick
      test_row_reuse_large_rows_miss;
    Alcotest.test_case "launch validation" `Quick test_launch_validation;
    Alcotest.test_case "grid for rows" `Quick test_grid_for_rows;
    QCheck_alcotest.to_alcotest prop_grid_covers_rows;
    Alcotest.test_case "cost: traffic monotone" `Quick
      test_cost_more_traffic_more_time;
    Alcotest.test_case "cost: occupancy effect" `Quick
      test_cost_low_occupancy_slower;
    Alcotest.test_case "cost: launch floor" `Quick test_cost_launch_floor;
    Alcotest.test_case "cost: add/scale" `Quick test_cost_add_scale;
    Alcotest.test_case "stats: add" `Quick test_stats_add;
    Alcotest.test_case "stats: dram total" `Quick test_total_dram;
    Alcotest.test_case "xfer ledger" `Quick test_xfer_ledger;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
  ]
