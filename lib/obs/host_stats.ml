type t = {
  domains : int;
  busy_ns : int array;
  idle_ns : int array;
  rows : int array;
  nnz : int array;
  mutable jobs : int;
  mutable acc_allocations : int;
  mutable acc_bytes : int;
  mutable merge_passes : int;
  mutable merge_ops : int;
  mutable merge_bytes : int;
  mutable layout_builds : int;
  mutable variant : string;
}

let create ~domains =
  if domains < 1 then invalid_arg "Host_stats.create: domains must be >= 1";
  {
    domains;
    busy_ns = Array.make domains 0;
    idle_ns = Array.make domains 0;
    rows = Array.make domains 0;
    nnz = Array.make domains 0;
    jobs = 0;
    acc_allocations = 0;
    acc_bytes = 0;
    merge_passes = 0;
    merge_ops = 0;
    merge_bytes = 0;
    layout_builds = 0;
    variant = "";
  }

let worker_slot = Domain.DLS.new_key (fun () -> 0)

let sink : t option Atomic.t = Atomic.make None

let current () = Atomic.get sink

let profiling () = current () <> None

let with_sink t f =
  let prev = Atomic.get sink in
  Atomic.set sink (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set sink prev) f

let slot t = Stdlib.min (Domain.DLS.get worker_slot) (t.domains - 1)

let add_work ~rows ~nnz =
  match current () with
  | None -> ()
  | Some t ->
      let s = slot t in
      t.rows.(s) <- t.rows.(s) + rows;
      t.nnz.(s) <- t.nnz.(s) + nnz

(* [jobs]/[merge_*]/[acc_*]/[variant] are only mutated from the
   coordinating domain (pool jobs are issued one at a time), so plain
   mutable fields suffice; per-worker arrays are written one slot per
   worker. *)
let record_job ~wall_ns ~busy_ns =
  match current () with
  | None -> ()
  | Some t ->
      t.jobs <- t.jobs + 1;
      let n = Stdlib.min (Array.length busy_ns) t.domains in
      for wid = 0 to n - 1 do
        t.busy_ns.(wid) <- t.busy_ns.(wid) + busy_ns.(wid);
        t.idle_ns.(wid) <-
          t.idle_ns.(wid) + Stdlib.max 0 (wall_ns - busy_ns.(wid))
      done

let record_alloc ~bytes =
  match current () with
  | None -> ()
  | Some t ->
      t.acc_allocations <- t.acc_allocations + 1;
      t.acc_bytes <- t.acc_bytes + bytes

let record_merge_pass () =
  match current () with
  | None -> ()
  | Some t -> t.merge_passes <- t.merge_passes + 1

let record_merge_op () =
  match current () with
  | None -> ()
  | Some t -> t.merge_ops <- t.merge_ops + 1

let record_merge_bytes ~bytes =
  match current () with
  | None -> ()
  | Some t -> t.merge_bytes <- t.merge_bytes + bytes

let set_variant v =
  match current () with None -> () | Some t -> t.variant <- v

let sum a = Array.fold_left ( + ) 0 a

let total_rows t = sum t.rows

let total_nnz t = sum t.nnz

let busy_total_ns t = sum t.busy_ns

let load_imbalance t =
  let active = Array.fold_left (fun n b -> if b > 0 then n + 1 else n) 0 t.busy_ns in
  if active = 0 then 1.0
  else begin
    let total = busy_total_ns t in
    let mean = float_of_int total /. float_of_int active in
    if mean <= 0.0 then 1.0
    else
      float_of_int (Array.fold_left Stdlib.max 0 t.busy_ns) /. mean
  end

let accumulate ~into t =
  let n = Stdlib.min into.domains t.domains in
  for i = 0 to n - 1 do
    into.busy_ns.(i) <- into.busy_ns.(i) + t.busy_ns.(i);
    into.idle_ns.(i) <- into.idle_ns.(i) + t.idle_ns.(i);
    into.rows.(i) <- into.rows.(i) + t.rows.(i);
    into.nnz.(i) <- into.nnz.(i) + t.nnz.(i)
  done;
  into.jobs <- into.jobs + t.jobs;
  into.acc_allocations <- into.acc_allocations + t.acc_allocations;
  into.acc_bytes <- into.acc_bytes + t.acc_bytes;
  into.merge_passes <- into.merge_passes + t.merge_passes;
  into.merge_ops <- into.merge_ops + t.merge_ops;
  into.merge_bytes <- into.merge_bytes + t.merge_bytes;
  into.layout_builds <- into.layout_builds + t.layout_builds;
  if t.variant <> "" then into.variant <- t.variant

let per_domain_series a =
  Array.to_list
    (Array.mapi (fun i v -> (Printf.sprintf "d%d" i, float_of_int v)) a)

let emit_trace_counters t =
  if Trace.enabled () then begin
    Trace.counter_sample "host.busy_ns" (per_domain_series t.busy_ns);
    Trace.counter_sample "host.idle_ns" (per_domain_series t.idle_ns);
    Trace.counter_sample "host.rows" (per_domain_series t.rows);
    Trace.counter_sample "host.nnz" (per_domain_series t.nnz)
  end

let int_array a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))

let to_json t =
  Json.Obj
    [
      ("domains", Json.Int t.domains);
      ("variant", Json.Str t.variant);
      ("jobs", Json.Int t.jobs);
      ("busy_ns", int_array t.busy_ns);
      ("idle_ns", int_array t.idle_ns);
      ("rows", int_array t.rows);
      ("nnz", int_array t.nnz);
      ("acc_allocations", Json.Int t.acc_allocations);
      ("acc_bytes", Json.Int t.acc_bytes);
      ("merge_passes", Json.Int t.merge_passes);
      ("merge_ops", Json.Int t.merge_ops);
      ("merge_bytes", Json.Int t.merge_bytes);
      ("layout_builds", Json.Int t.layout_builds);
      ("load_imbalance", Json.Float (load_imbalance t));
    ]

let pp fmt t =
  let ms a i = Clock.ns_to_ms a.(i) in
  Format.fprintf fmt "@[<v>host stats (%d domain%s%s):@," t.domains
    (if t.domains = 1 then "" else "s")
    (if t.variant = "" then "" else ", variant " ^ t.variant);
  for i = 0 to t.domains - 1 do
    Format.fprintf fmt "  d%-3d busy %8.3f ms  idle %8.3f ms  rows %9d  nnz %10d@,"
      i (ms t.busy_ns i) (ms t.idle_ns i) t.rows.(i) t.nnz.(i)
  done;
  Format.fprintf fmt
    "  jobs=%d acc_allocations=%d acc_bytes=%d merge_passes=%d merge_ops=%d@,"
    t.jobs t.acc_allocations t.acc_bytes t.merge_passes t.merge_ops;
  Format.fprintf fmt "  merge_bytes=%d layout_builds=%d@," t.merge_bytes
    t.layout_builds;
  Format.fprintf fmt "  load imbalance %.3f (max busy / mean busy)@]"
    (load_imbalance t)
