(* Measurements taken from outside the library: the clock, repeated-call
   timers, the machine-context probes behind the drift guard (STREAM
   triad bandwidth, CPU steal) and the process's peak resident set. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let batch_ns f k =
  snd
    (time_ns (fun () ->
         for _ = 1 to k do
           f ()
         done))

(* Calls of [f] per batch that make a batch last at least 1 ms, so
   sub-microsecond calls are not lost in clock granularity. *)
let batch_size f =
  let rec go k = if batch_ns f k >= 1_000_000 || k >= 1 lsl 20 then k else go (2 * k) in
  go 1

let per_call k ns = float_of_int ns /. float_of_int k

(* Median per-call time of [f] over 9 batches. *)
let per_call_ns f =
  let k = batch_size f in
  Harness.median (Array.init 9 (fun _ -> per_call k (batch_ns f k)))

(* Per-call medians of [f] and [g] and of their difference, from 15
   pairs of batches run alternately, so the difference is not skewed by
   the machine's speed changing between two separate measurements. *)
let paired_ns f g =
  let k = batch_size f in
  let pairs =
    Array.init 15 (fun i ->
        if i mod 2 = 0 then
          let a = batch_ns f k in
          (per_call k a, per_call k (batch_ns g k))
        else
          let b = batch_ns g k in
          (per_call k (batch_ns f k), per_call k b))
  in
  ( Harness.median (Array.map fst pairs),
    Harness.median (Array.map snd pairs),
    Harness.median (Array.map (fun (a, b) -> a -. b) pairs) )

let nproc () = Domain.recommended_domain_count ()

(* --- STREAM triad -------------------------------------------------------- *)

(* Three arrays of 4 Mi doubles (32 MiB each, 96 MiB in all).  The HPC
   rule of arrays at least four times the last-level cache cannot be met
   here: sysfs reports a 300 MB L3 shared by both CPUs, which would need
   1.2 GB per array on a machine shared with other tenants.  The probe
   therefore measures the same cache-plus-memory mix the workloads'
   working sets (60-90 MB) see, and is compared only with itself. *)
let triad_elems = 4 * 1024 * 1024

let triad_bytes = 3 * 8 * triad_elems

(* Best of five a = b + s*c sweeps, split evenly over [nproc] domains;
   24 bytes move per element (two loads, one store). *)
let triad_gbps () =
  let n = triad_elems in
  let a = Array.make n 0.0 and b = Array.make n 1.0 and c = Array.make n 2.0 in
  let pool = Par.Pool.create ~size:(nproc ()) () in
  let workers = Par.Pool.size pool in
  let best = ref max_int in
  for _ = 1 to 5 do
    let _, dt =
      time_ns (fun () ->
          Par.Pool.run_workers pool (fun wid ->
              let lo = wid * n / workers and hi = (wid + 1) * n / workers in
              for i = lo to hi - 1 do
                Array.unsafe_set a i
                  (Array.unsafe_get b i +. (3.0 *. Array.unsafe_get c i))
              done))
    in
    best := Stdlib.min !best dt
  done;
  Par.Pool.shutdown pool;
  float_of_int (24 * n) /. float_of_int !best

(* --- /proc and /sys -------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let words s =
  String.map (function '\t' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

(* (steal, total) jiffies summed over all CPUs from the first line of
   /proc/stat; total counts user..steal. *)
let cpu_jiffies () =
  match read_lines "/proc/stat" with
  | l :: _ -> (
      match words l with
      | "cpu" :: fields ->
          let v = List.filteri (fun i _ -> i < 8) fields |> List.map int_of_string in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | [] -> (0, 0)

let steal_frac ~before:(s0, t0) ~after:(s1, t1) =
  if t1 <= t0 then 0.0 else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* VmHWM of this process in MB (MiB). *)
let peak_rss_mb () =
  List.find_map
    (fun l ->
      match words l with
      | "VmHWM:" :: kb :: _ -> Some (float_of_int (int_of_string kb) /. 1024.0)
      | _ -> None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:0.0

(* Size in bytes of the highest cache level sysfs describes for cpu0. *)
let llc_bytes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun best e ->
      let field f =
        match read_lines (Filename.concat (Filename.concat dir e) f) with
        | l :: _ -> Some (String.trim l)
        | [] -> None
      in
      match (field "level", field "size") with
      | Some level, Some size -> (
          let level = int_of_string level in
          let n = String.length size in
          let bytes =
            match size.[n - 1] with
            | 'K' -> int_of_string (String.sub size 0 (n - 1)) * 1024
            | 'M' -> int_of_string (String.sub size 0 (n - 1)) * 1024 * 1024
            | _ -> int_of_string size
          in
          match best with
          | Some (l, _) when l >= level -> best
          | _ -> Some (level, bytes))
      | _ -> best)
    None entries
  |> Option.map snd
