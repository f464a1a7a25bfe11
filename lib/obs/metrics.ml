(* Process-wide labeled time-series registry.

   The continuous counterpart of the one-shot profiling layer: where
   [Counter]/[Trace] answer "what happened during this run", the
   metrics registry answers "what is happening right now" — it is what
   the OpenMetrics scrape endpoint, `kf top`, and the SLO tracker read.

   Three families, Prometheus-style:
     - counters: monotonically increasing floats,
     - gauges:   last-write-wins floats,
     - histograms: cumulative [Histogram.t] cells for quantiles.

   Cells are keyed by (family name, sorted label set).  Creating the
   same name+labels twice yields the same cell, so modules declare
   their metrics at load time without coordination (same contract as
   [Counter.make]).  Recording costs one atomic load when the registry
   is disabled ([KF_METRICS=0]), an atomic CAS for counters/gauges and
   a short mutexed bucket increment for histograms when enabled —
   measured at well under 2% of the serving benchmark. *)

type labels = (string * string) list

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

type kind = Kcounter | Kgauge | Khistogram

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

type cell =
  | Cfloat of float Atomic.t  (* counters and gauges *)
  | Chist of Mutex.t * Histogram.t

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_cells : (labels, cell) Hashtbl.t;
}

type counter = float Atomic.t

type gauge = float Atomic.t

type histogram = Mutex.t * Histogram.t

(* --- registry ----------------------------------------------------------- *)

let families : (string, family) Hashtbl.t = Hashtbl.create 32

let registry_mutex = Mutex.create ()

let metrics_var =
  Env.bool "KF_METRICS"
    ~doc:"Process-wide metrics registry; off makes recording a no-op."
    ~default:"on"

(* [None] until the first recording reads [KF_METRICS]; latched after,
   because every counter bump consults it. *)
let enabled_flag = Atomic.make None

let enabled () =
  match Atomic.get enabled_flag with
  | Some b -> b
  | None ->
      let b = Option.value (Env.get metrics_var) ~default:true in
      Atomic.set enabled_flag (Some b);
      b

let set_enabled b = Atomic.set enabled_flag (Some b)

let get_cell ~kind ~help ~labels name =
  Mutex.lock registry_mutex;
  let fam =
    match Hashtbl.find_opt families name with
    | Some f ->
        if f.f_kind <> kind then begin
          Mutex.unlock registry_mutex;
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name f.f_kind))
        end;
        f
    | None ->
        let f =
          { f_name = name; f_help = help; f_kind = kind;
            f_cells = Hashtbl.create 4 }
        in
        Hashtbl.add families name f;
        f
  in
  let labels = canon labels in
  let cell =
    match Hashtbl.find_opt fam.f_cells labels with
    | Some c -> c
    | None ->
        let c =
          match kind with
          | Kcounter | Kgauge -> Cfloat (Atomic.make 0.0)
          | Khistogram -> Chist (Mutex.create (), Histogram.create ())
        in
        Hashtbl.add fam.f_cells labels c;
        c
  in
  Mutex.unlock registry_mutex;
  cell

let counter ?(help = "") ?(labels = []) name : counter =
  match get_cell ~kind:Kcounter ~help ~labels name with
  | Cfloat a -> a
  | Chist _ -> assert false

let gauge ?(help = "") ?(labels = []) name : gauge =
  match get_cell ~kind:Kgauge ~help ~labels name with
  | Cfloat a -> a
  | Chist _ -> assert false

let histogram ?(help = "") ?(labels = []) name : histogram =
  match get_cell ~kind:Khistogram ~help ~labels name with
  | Chist (mu, h) -> (mu, h)
  | Cfloat _ -> assert false

(* --- recording ----------------------------------------------------------- *)

let rec atomic_add a d =
  let v = Atomic.get a in
  if not (Atomic.compare_and_set a v (v +. d)) then atomic_add a d

let inc ?(by = 1.0) (c : counter) =
  if enabled () then begin
    if by < 0.0 then invalid_arg "Metrics.inc: counters are monotonic";
    if by > 0.0 then atomic_add c by
  end

let counter_value (c : counter) = Atomic.get c

let set (g : gauge) v = if enabled () then Atomic.set g v

let gauge_value (g : gauge) = Atomic.get g

let observe ((mu, h) : histogram) v =
  if enabled () then begin
    Mutex.lock mu;
    Histogram.record h v;
    Mutex.unlock mu
  end

let histogram_value ((mu, h) : histogram) =
  Mutex.lock mu;
  let c = Histogram.copy h in
  Mutex.unlock mu;
  c

(* --- snapshots ----------------------------------------------------------- *)

type value =
  | Vcounter of float
  | Vgauge of float
  | Vhist of Histogram.t

type sample = {
  s_name : string;
  s_help : string;
  s_labels : labels;
  s_value : value;
}

type snapshot = { taken_ns : int; samples : sample list }

let compare_sample a b =
  let c = String.compare a.s_name b.s_name in
  if c <> 0 then c else compare a.s_labels b.s_labels

(* Optionally folds the profiling layer's [Counter] registry in as
   counter samples, so a scrape exposes the whole process — the
   executor's resilience tallies, the service counters — not only the
   families declared through this module. *)
let snapshot ?(process_counters = false) () =
  Mutex.lock registry_mutex;
  let samples =
    Hashtbl.fold
      (fun _ fam acc ->
        Hashtbl.fold
          (fun labels cell acc ->
            let value =
              match (fam.f_kind, cell) with
              | Kcounter, Cfloat a -> Vcounter (Atomic.get a)
              | Kgauge, Cfloat a -> Vgauge (Atomic.get a)
              | Khistogram, Chist (mu, h) ->
                  Mutex.lock mu;
                  let c = Histogram.copy h in
                  Mutex.unlock mu;
                  Vhist c
              | _ -> assert false
            in
            { s_name = fam.f_name; s_help = fam.f_help; s_labels = labels;
              s_value = value }
            :: acc)
          fam.f_cells acc)
      families []
  in
  Mutex.unlock registry_mutex;
  let samples =
    if process_counters then
      List.fold_left
        (fun acc (name, v) ->
          { s_name = name; s_help = ""; s_labels = [];
            s_value = Vcounter (float_of_int v) }
          :: acc)
        samples (Counter.all ())
    else samples
  in
  { taken_ns = Clock.now_ns (); samples = List.sort compare_sample samples }

let find snap ~name ?(labels = []) () =
  let labels = canon labels in
  List.find_opt
    (fun s -> s.s_name = name && s.s_labels = labels)
    snap.samples

(* Counters become deltas (clamped at zero so a registry reset between
   snapshots cannot produce a negative rate), histograms become the
   bucket-wise [Histogram.diff], gauges keep their latest value —
   exactly what a rolling window or a rate display wants. *)
let snapshot_diff ~before ~after =
  let samples =
    List.map
      (fun s ->
        let value =
          match (s.s_value, find before ~name:s.s_name ~labels:s.s_labels ()) with
          | Vcounter a, Some { s_value = Vcounter b; _ } ->
              Vcounter (Float.max 0.0 (a -. b))
          | Vhist a, Some { s_value = Vhist b; _ } ->
              Vhist (Histogram.diff ~after:a ~before:b)
          | v, _ -> v
        in
        { s with s_value = value })
      after.samples
  in
  { taken_ns = after.taken_ns; samples }

(* --- rolling windows ----------------------------------------------------- *)

module Window = struct
  (* A bounded ring of snapshots; rate and quantile queries compare the
     newest against the oldest retained, so with a 1 s push cadence and
     the default capacity the answers cover the last minute. *)
  type w = {
    capacity : int;
    mutable ring : snapshot array;  (* oldest first *)
    mutable len : int;
  }

  type t = w

  let create ?(capacity = 60) () =
    if capacity < 2 then invalid_arg "Metrics.Window.create: capacity >= 2";
    { capacity; ring = [||]; len = 0 }

  let push w snap =
    if w.len < w.capacity then begin
      let ring = Array.make (w.len + 1) snap in
      Array.blit w.ring 0 ring 0 w.len;
      w.ring <- ring;
      w.len <- w.len + 1
    end
    else begin
      Array.blit w.ring 1 w.ring 0 (w.len - 1);
      w.ring.(w.len - 1) <- snap
    end

  let bounds w =
    if w.len < 2 then None else Some (w.ring.(0), w.ring.(w.len - 1))

  let span_s w =
    match bounds w with
    | None -> 0.0
    | Some (a, b) -> float_of_int (b.taken_ns - a.taken_ns) /. 1e9

  let diff w =
    match bounds w with
    | None -> None
    | Some (before, after) -> Some (snapshot_diff ~before ~after)

  let rate w ~name ?(labels = []) () =
    match bounds w with
    | None -> 0.0
    | Some (before, after) ->
        let dt = float_of_int (after.taken_ns - before.taken_ns) /. 1e9 in
        if dt <= 0.0 then 0.0
        else
          let at snap =
            match find snap ~name ~labels () with
            | Some { s_value = Vcounter v; _ } -> Some v
            | _ -> None
          in
          (match (at before, at after) with
          | Some b, Some a -> Float.max 0.0 (a -. b) /. dt
          | _ -> 0.0)

  let quantile w ~name ?(labels = []) ~q () =
    match diff w with
    | None -> None
    | Some d -> (
        match find d ~name ~labels () with
        | Some { s_value = Vhist h; _ } when Histogram.count h > 0 ->
            Some (Histogram.quantile h q)
        | _ -> None)
end

(* Tests share the process-wide registry, so they scope themselves the
   same way tracing tests do: reset, run, reset. *)
let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset families;
  Mutex.unlock registry_mutex
