(* Host cache/tiling parameters for the blocked multicore kernels.

   This is the host-side mirror of the GPU tuner's hardware model: where
   [Fusion.Tuning] sizes launches from registers/shared-memory limits,
   the blocked host kernels size their row blocks and column tiles from
   the L2 cache, so each domain's working set (its slice of the [w]
   accumulator plus the streamed matrix block) stays cache-resident.
   Everything derives from one number, the per-core L2 size. *)

let parse_positive s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Some n
  | _ -> None

let l2_var =
  Kf_obs.Env.int ~min:1 "KF_HOST_L2_BYTES"
    ~doc:"Per-core L2 size the host tiling and variant choice assume."
    ~default:"sysfs, else 1048576"

(* Best-effort probe of the per-core L2 size ("2048K", "1M", plain
   bytes).  Any failure falls back to a conservative 1 MiB. *)
let sysfs_l2_bytes () =
  let path = "/sys/devices/system/cpu/cpu0/cache/index2/size" in
  match In_channel.with_open_text path In_channel.input_line with
  | None -> None
  | Some line -> (
      let line = String.trim line in
      let n = String.length line in
      if n = 0 then None
      else
        let scaled mult =
          Option.map (fun v -> v * mult)
            (parse_positive (String.sub line 0 (n - 1)))
        in
        match line.[n - 1] with
        | 'K' | 'k' -> scaled 1024
        | 'M' | 'm' -> scaled (1024 * 1024)
        | _ -> parse_positive line)
  | exception _ -> None

let fallback_l2_bytes = 1 lsl 20

(* Where did the L2 figure come from?  Exposed so benchmark metadata
   can record whether results were tiled against measured hardware or
   the guess — and so the fallback is a visible one-line warning, not a
   silent mis-tiling on machines with exotic cache topologies.  Read
   once, at the first host op: every op consults it. *)
let detected_l2 =
  lazy
    (match Kf_obs.Env.get l2_var with
    | Some n -> (n, "env")
    | None -> (
        match sysfs_l2_bytes () with
        | Some n -> (n, "sysfs")
        | None ->
            Printf.eprintf
              "kf: warning: could not read the per-core L2 size from sysfs; \
               tiling for %d KiB (set KF_HOST_L2_BYTES to override)\n\
               %!"
              (fallback_l2_bytes / 1024);
            (fallback_l2_bytes, "fallback")))

let l2_bytes () = fst (Lazy.force detected_l2)

let l2_source () = snd (Lazy.force detected_l2)

let clamp lo hi v = Stdlib.max lo (Stdlib.min hi v)

(* Column-tile width: the owned slice of [w] for one tile should use at
   most a quarter of L2, leaving the rest for the streamed matrix block
   and the per-row scalars. *)
let tile_cols () = clamp 64 (1 lsl 20) (l2_bytes () / (4 * 8))

(* Row-block height: sized so a block of per-row scalars plus a typical
   row slice streams through half of L2 (assuming ~64 bytes of matrix
   data per row, the regime where blocking starts to matter). *)
let tile_rows () = clamp 256 (1 lsl 16) (l2_bytes () / 512)

(* Variant predicate shared by [Fusion.Host_fused] and the blocked
   parallel BLAS: per-domain dense accumulators (the one-walk kernel
   with a tree merge) win while they are cache-cheap; once
   [8 * cols * domains] outgrows half an L2 per domain, the
   O(domains * cols) accumulate-and-merge traffic dominates and the
   owner-computes blocked kernel takes over.  With a single domain
   there is nothing to merge, so the one-walk kernel always wins. *)
let prefer_owner_computes ~domains ~cols =
  domains > 1 && 8 * cols * domains > domains * (l2_bytes () / 2)
