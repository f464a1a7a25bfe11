type event =
  | Span of {
      name : string;
      ts_ns : int;
      dur_ns : int;
      tid : int;
      args : (string * string) list;
    }
  | Counter_sample of {
      name : string;
      ts_ns : int;
      tid : int;
      values : (string * float) list;
    }
  | Instant of {
      name : string;
      ts_ns : int;
      tid : int;
      args : (string * string) list;
    }

let event_ts = function
  | Span { ts_ns; _ } | Counter_sample { ts_ns; _ } | Instant { ts_ns; _ } ->
      ts_ns

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let enable () = Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* --- probabilistic sampling --------------------------------------------- *)

(* Per-request tracing at full rate costs a measured ~3.5% on the
   serving path; sampling keeps a deterministic, seed-reproducible
   subset instead.  The decision is a pure hash of (seed, id) — no RNG
   state — so the same id samples identically on every domain, every
   run, and every replay: a sampled request's submit, queue, execute
   and resolve spans all make the same decision. *)

let sample_state = Atomic.make (1.0, 0)

let set_sample ?(seed = 0) rate =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  Atomic.set sample_state (rate, seed)

let sample_rate () = fst (Atomic.get sample_state)

(* splitmix64-style finaliser over seed-xor-id *)
let mix x =
  let x = x * 0x9e3779b97f4a7c1 in
  let x = (x lxor (x lsr 30)) * 0xbf58476d1ce4e5b in
  let x = (x lxor (x lsr 27)) * 0x94d049bb133111e in
  x lxor (x lsr 31)

let sampled id =
  let rate, seed = Atomic.get sample_state in
  if rate >= 1.0 then true
  else if rate <= 0.0 then false
  else
    let h = mix (id lxor mix seed) land max_int in
    float_of_int h /. float_of_int max_int < rate

let file_var =
  Env.path "KF_TRACE"
    ~doc:"Chrome trace file every kf subcommand writes at exit (--trace)."
    ~default:"none"

let sample_var =
  Env.float ~min:0.0 ~max:1.0 "KF_TRACE_SAMPLE"
    ~doc:"Fraction of requests whose spans a trace keeps (--trace-sample)."
    ~default:"1"

let seed_var =
  Env.int "KF_TRACE_SEED" ~doc:"Seed of the trace-sampling hash."
    ~default:"0"

let sample_of_env ?rate () =
  match if Option.is_some rate then rate else Env.get sample_var with
  | None -> ()
  | Some rate ->
      set_sample ~seed:(Option.value (Env.get seed_var) ~default:0) rate

(* Suppression scope: work done on behalf of an UNsampled request (the
   executor call, the pool dispatch it fans out) must not emit spans,
   or per-batch infrastructure spans would dominate the volume that
   request sampling was meant to cut.  The flag is per-domain — the
   service wraps the batch execution, and layers that hand work to
   other domains (the pool) capture {!emitting} on the calling domain
   at dispatch, which carries the decision across. *)

let suppress_key = Domain.DLS.new_key (fun () -> ref false)

let suppressed () = !(Domain.DLS.get suppress_key)

let with_suppressed f =
  let r = Domain.DLS.get suppress_key in
  let old = !r in
  r := true;
  Fun.protect ~finally:(fun () -> r := old) f

let emitting () = Atomic.get enabled_flag && not (suppressed ())

(* Per-domain buffer: only the owning domain appends, so no lock is
   needed on the hot path.  The registry mutex guards only first-event
   registration and whole-buffer reads/clears. *)
type buf = { mutable items : event array; mutable len : int }

let max_events_per_domain = 1 lsl 20

let dropped_total = Atomic.make 0

let registry : buf list ref = ref []

let registry_mutex = Mutex.create ()

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { items = Array.make 256 (Instant { name = ""; ts_ns = 0; tid = 0; args = [] }); len = 0 } in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let record ev =
  let b = Domain.DLS.get buf_key in
  if b.len >= max_events_per_domain then Atomic.incr dropped_total
  else begin
    if b.len = Array.length b.items then begin
      let items = Array.make (2 * b.len) b.items.(0) in
      Array.blit b.items 0 items 0 b.len;
      b.items <- items
    end;
    b.items.(b.len) <- ev;
    b.len <- b.len + 1
  end

let self_tid () = (Domain.self () :> int)

let complete ~name ?(args = []) ~ts_ns ~dur_ns () =
  if emitting () then
    record (Span { name; ts_ns; dur_ns; tid = self_tid (); args })

let with_span ?(args = []) name f =
  if not (emitting ()) then f ()
  else begin
    let ts_ns = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ns = Clock.now_ns () - ts_ns in
        record (Span { name; ts_ns; dur_ns; tid = self_tid (); args }))
      f
  end

let instant ?(args = []) name =
  if emitting () then
    record (Instant { name; ts_ns = Clock.now_ns (); tid = self_tid (); args })

let counter_sample name values =
  if emitting () then
    record
      (Counter_sample
         { name; ts_ns = Clock.now_ns (); tid = self_tid (); values })

let with_buffers f =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  f bufs

(* Start-time order, with longer spans first on ties: the clock's
   microsecond granularity (plus its monotonic clamp) makes a parent and
   its first child start on the same tick, and a parent ordered before
   its children is what nesting reconstruction and trace viewers
   expect. *)
let compare_events a b =
  let c = compare (event_ts a) (event_ts b) in
  if c <> 0 then c
  else
    match (a, b) with
    | Span { dur_ns = da; _ }, Span { dur_ns = db; _ } -> compare db da
    | _ -> 0

let events () =
  with_buffers (fun bufs ->
      let all =
        List.concat_map
          (fun b -> Array.to_list (Array.sub b.items 0 b.len))
          bufs
      in
      List.stable_sort compare_events all)

let event_count () =
  with_buffers (fun bufs -> List.fold_left (fun acc b -> acc + b.len) 0 bufs)

let dropped () = Atomic.get dropped_total

let clear () =
  with_buffers (fun bufs -> List.iter (fun b -> b.len <- 0) bufs);
  Atomic.set dropped_total 0
