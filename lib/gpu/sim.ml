type ctx = {
  device : Device.t;
  launch : Launch.t;
  occupancy : Occupancy.result;
  stats : Stats.t;
}

type report = {
  kernel : string;
  launch : Launch.t;
  occupancy : Occupancy.result;
  stats : Stats.t;
  time : Cost_model.breakdown;
}

let run device (launch : Launch.t) ~name body =
  let occupancy =
    Occupancy.calculate device ~block_size:launch.block_size
      ~regs_per_thread:launch.regs_per_thread
      ~shared_per_block:launch.shared_per_block
  in
  let ctx = { device; launch; occupancy; stats = Stats.create () } in
  let result = body ctx in
  let time =
    Cost_model.time device ~occupancy ~grid_blocks:launch.grid_blocks ctx.stats
  in
  (result, { kernel = name; launch; occupancy; stats = ctx.stats; time })

let tx (ctx : ctx) = ctx.device.transaction_bytes

let load_segment (ctx : ctx) ~bytes_per_elt ~start ~count =
  ctx.stats.gld_transactions <-
    ctx.stats.gld_transactions
    + Coalesce.segment ~transaction_bytes:(tx ctx) ~bytes_per_elt ~start ~count

let store_segment (ctx : ctx) ~bytes_per_elt ~start ~count =
  ctx.stats.gst_transactions <-
    ctx.stats.gst_transactions
    + Coalesce.segment ~transaction_bytes:(tx ctx) ~bytes_per_elt ~start ~count

let load_gather_sorted (ctx : ctx) ~bytes_per_elt ~indices ~lo ~hi =
  ctx.stats.gld_transactions <-
    ctx.stats.gld_transactions
    + Coalesce.gather_sorted ~transaction_bytes:(tx ctx) ~bytes_per_elt
        ~indices ~lo ~hi

(* Gather misses fetch 32-byte sectors, a quarter of the 128-byte
   transaction the counters are denominated in. *)
let sector_fraction = 0.25

let gathered_lines_cached (ctx : ctx) ~bytes_per_elt ~indices ~lo ~hi
    ~hit_fraction =
  let lines =
    Coalesce.gather_sorted ~transaction_bytes:(tx ctx) ~bytes_per_elt ~indices
      ~lo ~hi
  in
  let missed =
    int_of_float
      (Float.round
         (float_of_int lines *. (1.0 -. hit_fraction) *. sector_fraction))
  in
  ctx.stats.gld_transactions <- ctx.stats.gld_transactions + missed

let tex_gather ?(l2_hit = 0.0) (ctx : ctx) ~vector_bytes ~indices ~lo ~hi =
  let lines =
    Coalesce.gather_sorted ~transaction_bytes:(tx ctx) ~bytes_per_elt:8
      ~indices ~lo ~hi
  in
  (* A texture miss falls through to L2 (which keeps the vector's hottest
     lines) and only an L2 miss fetches a 32-byte sector from DRAM. *)
  let miss =
    Cache.tex_miss_fraction ctx.device ~vector_bytes *. (1.0 -. l2_hit)
  in
  ctx.stats.tex_requests <- ctx.stats.tex_requests + lines;
  ctx.stats.tex_misses <-
    ctx.stats.tex_misses
    + int_of_float (Float.round (float_of_int lines *. miss *. sector_fraction))

let global_atomic_add ?(l2_hit = 0.0) (ctx : ctx) ~ops ~conflict_degree =
  if conflict_degree < 1.0 then
    invalid_arg "Sim.global_atomic_add: conflict degree below 1";
  if l2_hit < 0.0 || l2_hit > 1.0 then
    invalid_arg "Sim.global_atomic_add: l2_hit out of range";
  ctx.stats.global_atomics <- ctx.stats.global_atomics + ops;
  ctx.stats.dram_atomics <-
    ctx.stats.dram_atomics
    + int_of_float (Float.round (float_of_int ops *. (1.0 -. l2_hit)));
  ctx.stats.atomic_conflicts <-
    ctx.stats.atomic_conflicts +. (float_of_int ops *. (conflict_degree -. 1.0))

let shared_atomic_add (ctx : ctx) ~ops =
  ctx.stats.shared_atomics <- ctx.stats.shared_atomics + ops

let shared_access (ctx : ctx) ~warp_requests ~conflict_ways =
  if conflict_ways < 1 then invalid_arg "Sim.shared_access: conflict ways";
  ctx.stats.shared_accesses <- ctx.stats.shared_accesses + warp_requests;
  ctx.stats.bank_conflicts <-
    ctx.stats.bank_conflicts + (warp_requests * (conflict_ways - 1))

let shuffle_reduce (ctx : ctx) ~width =
  if width > 1 then begin
    let steps =
      int_of_float (Float.ceil (log (float_of_int width) /. log 2.0))
    in
    ctx.stats.shuffles <- ctx.stats.shuffles + steps;
    ctx.stats.flops <- ctx.stats.flops + steps
  end

let flops (ctx : ctx) n = ctx.stats.flops <- ctx.stats.flops + n

let barrier (ctx : ctx) = ctx.stats.barriers <- ctx.stats.barriers + 1

let local_spill (ctx : ctx) ~transactions =
  ctx.stats.local_spill_transactions <-
    ctx.stats.local_spill_transactions + transactions

let sequence reports =
  let stats = Stats.create () in
  let time =
    List.fold_left
      (fun acc r ->
        Stats.add stats r.stats;
        Cost_model.add acc r.time)
      Cost_model.zero reports
  in
  (time, stats)

let total_ms reports =
  List.fold_left (fun acc r -> acc +. r.time.Cost_model.total_ms) 0.0 reports

let pp_report fmt r =
  Format.fprintf fmt "@[<v>kernel %s: %a@,launch: %a@,occupancy: %a@,%a@]"
    r.kernel Cost_model.pp r.time Launch.pp r.launch Occupancy.pp r.occupancy
    Stats.pp r.stats
