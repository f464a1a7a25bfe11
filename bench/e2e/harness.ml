(* Pure parts of the end-to-end benchmark: the metric catalogue, order
   statistics, span self time, due-time latency and the result line.
   Nothing here touches the clock, the file system or the library under
   test, so the unit tests in [test_harness.ml] pin every rule the
   benchmark's numbers depend on. *)

(* --- workloads and metric catalogue ----------------------------------------- *)

let workloads = [ "lr-cg-tall"; "logreg-wide"; "graphemb"; "serve-lr" ]

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: the share of the parent's median by
          which the metric may worsen before a change is a regression *)
}

let m ?bound name unit_ better = { name; unit_; better; bound }

(* Every workload reports every metric below, so each one is defined for
   a training solve and for a served request alike: a training
   workload's unit of work is one solve, started the moment the previous
   one ends (closed loop); serve-lr's is one request, timed from when the
   open-loop schedule said it was due.  The two timings are the best the
   run saw, because on a shared host nothing else repeats within its
   bound (README.md, "Noise"); medians and p90s are printed, not listed. *)
let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "latency_ms_best" "ms" Lower ~bound:0.25;
    m "throughput_per_s_best" "1/s" Higher ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.1;
  ]

(* Probed in the traced pass only.  Where a workload has no call of its
   own for a layer, the probe runs that layer's public function on the
   workload's own operands (see README.md, "Per-layer metrics"). *)
let per_layer =
  [
    m "env.triad_gbps_start" "GB/s" Higher;
    m "env.triad_gbps_end" "GB/s" Higher;
    m "env.steal_frac" "ratio" Lower;
    m "trace.overhead_pct" "%" Lower;
    m "trace.overhead_pct_q1" "%" Lower;
    m "trace.overhead_pct_q3" "%" Lower;
    m "pool.forkjoin_us" "us" Lower;
    m "host.jobs_per_unit" "count" Lower;
    m "host.busy_frac" "ratio" Higher;
    m "host.imbalance" "ratio" Lower;
    m "host.merge_bytes_per_unit" "B" Lower;
    m "host.acc_bytes_per_unit" "B" Lower;
    m "host.layout_builds_per_unit" "count" Lower;
    m "executor.calls_per_unit" "count" Lower;
    m "executor.call_us" "us" Lower;
    m "executor.dispatch_us" "us" Lower;
    m "kernel.call_us" "us" Lower;
    m "kernel.unfused_us" "us" Lower;
    m "kernel.seq_ref_us" "us" Lower;
    m "kernel.speedup_vs_seq" "ratio" Higher;
    m "kernel.gbps_computed" "GB/s" Higher;
    m "kernel.triad_frac" "ratio" Higher;
    m "guard.scan_us" "us" Lower;
    m "ckpt.write_ms" "ms" Lower;
    m "ckpt.bytes" "B" Lower;
  ]

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

let valid_unit s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok_char s

(* --- order statistics ------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] of all samples at
   or below it. *)
let rank ~n p = Stdlib.max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  sorted.(Stdlib.min n (rank ~n p) - 1)

(* Samples ranked strictly above the [p] percentile.  A percentile is
   reported only when at least ten samples lie beyond it, so a training
   workload needs 100 solves for its p90. *)
let beyond ~n p = n - rank ~n p

let supported ~n p = beyond ~n p >= 10

let median a = percentile (sorted a) 0.5

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so quartiles printed here match the ones the spread rule in
   README.md is computed with. *)
let quartiles a =
  let d = sorted a in
  let n = Array.length d in
  if n < 2 then invalid_arg "Harness.quartiles: need at least two samples";
  let m = n + 1 in
  let q i =
    let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* --- due-time latency ------------------------------------------------------- *)

(* Request [k] of an open loop at [rate] per second is due at
   [start_ns + k / rate]; computing each due time from [k] rather than
   accumulating intervals keeps rounding from drifting the schedule. *)
let due_ns ~start_ns ~rate k =
  start_ns + int_of_float (Float.round (float_of_int k *. 1e9 /. rate))

(* The wait a request sees is how late the generator sent it plus the
   time from submission until it was seen resolved: a stall that delays
   later sends is charged to every request it delayed. *)
let due_latency_ns ~due_ns ~submit_ns ~seen_ns =
  (submit_ns - due_ns) + (seen_ns - submit_ns)

(* Percentile of request latencies in send order, where [nan] marks a
   request never served: it counts as slower than any served one. *)
let latency_percentile samples p =
  percentile (sorted (Array.map (fun v -> if Float.is_nan v then infinity else v) samples)) p

(* The highest rate, in units per second, that any [k] consecutive units
   of work sustained, from their durations in ns ([k] is capped at the
   number of units).  One lucky unit cannot set it, a stretch can. *)
let best_rate durations_ns ~k =
  let n = Array.length durations_ns in
  if n = 0 then invalid_arg "Harness.best_rate: no samples";
  let k = Stdlib.min k n in
  let sum = ref 0.0 in
  for i = 0 to k - 1 do
    sum := !sum +. durations_ns.(i)
  done;
  let best = ref !sum in
  for i = k to n - 1 do
    sum := !sum +. durations_ns.(i) -. durations_ns.(i - k);
    best := Float.min !best !sum
  done;
  float_of_int k /. (!best /. 1e9)

(* --- span self time -------------------------------------------------------- *)

type span = { s_name : string; tid : int; ts : int; dur : int }

type self_row = { r_name : string; count : int; total_ns : int; self_ns : int }

(* A span's self time is its duration minus the part of it covered by
   its child spans: spans on the same domain ([tid]) lying wholly inside
   it with no tighter enclosing span.  Children that overlap each other
   (requests recorded after the fact) are counted once, as the union of
   their intervals.  A span that only partly overlaps another is not its
   child. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find by_tid s.tid with Not_found -> [] in
      Hashtbl.replace by_tid s.tid (s :: l))
    spans;
  let acc = Hashtbl.create 32 in
  let finish (s, covered) =
    let count, total, self =
      try Hashtbl.find acc s.s_name with Not_found -> (0, 0, 0)
    in
    Hashtbl.replace acc s.s_name
      (count + 1, total + s.dur, self + (s.dur - covered))
  in
  Hashtbl.iter
    (fun _ l ->
      let a = Array.of_list l in
      Array.sort
        (fun x y -> if x.ts <> y.ts then compare x.ts y.ts else compare y.dur x.dur)
        a;
      (* open spans: (span, covered_ns, coverage_end_ns) *)
      let stack = ref [] in
      let rec pop_ended ts = function
        | (s, cov, _) :: rest when s.ts + s.dur <= ts ->
            finish (s, cov);
            pop_ended ts rest
        | l -> l
      in
      let rec attach c = function
        | [] -> []
        | (p, cov, cov_end) :: rest
          when c.ts >= p.ts && c.ts + c.dur <= p.ts + p.dur ->
            let c_end = c.ts + c.dur in
            let cov, cov_end =
              if c.ts >= cov_end then (cov + c.dur, c_end)
              else if c_end > cov_end then (cov + (c_end - cov_end), c_end)
              else (cov, cov_end)
            in
            (p, cov, cov_end) :: rest
        | x :: rest -> x :: attach c rest
      in
      Array.iter
        (fun s ->
          stack := pop_ended s.ts !stack;
          stack := (s, 0, min_int) :: attach s !stack)
        a;
      List.iter (fun (s, cov, _) -> finish (s, cov)) !stack)
    by_tid;
  Hashtbl.fold
    (fun r_name (count, total_ns, self_ns) l ->
      { r_name; count; total_ns; self_ns } :: l)
    acc []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)

(* --- result line ------------------------------------------------------------ *)

(* The last line of a run's standard output.  Values keep all their
   digits ([%.17g] round-trips a float exactly). *)
let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (metric, value) ->
      if not (Float.is_finite value) then
        invalid_arg
          (Printf.sprintf "Harness.result_line: %s is not finite" metric.name);
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" metric.name
        value metric.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
