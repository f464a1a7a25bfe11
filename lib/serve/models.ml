(* Multi-model serving registry: N named models over one device, each
   its own {!Service}, with three concerns the single-service layer
   does not have:

   - {e residency}: loaded weights are charged against a byte budget
     through {!Sysml.Memmgr}'s LRU — submitting to a model touches its
     block, admitting a model the budget cannot hold evicts the
     least-recently-used one ([Memmgr]'s [on_evict] unloads that
     service's weights atomically).  An evicted model is not gone: its
     service re-materialises the weights from the model file on the
     next batch (the provider installed here), so eviction costs
     latency, never correctness.  Re-materialising re-admits: every
     generation goes live through {!publish}, which publishes the
     weights and makes the model resident, evicting the LRU victim,
     before it releases the registry mutex — so the budget still holds
     after an in-flight batch reloads a model evicted under it, or a
     hot swap lands on one.

   - {e hot-swap}: each model's checkpoint path is watched
     ({!Kf_resil.Reload}); a verified new generation swaps atomically
     into the live service, a torn/corrupt candidate is rejected and
     the old generation keeps serving.  [poll] is the single step
     function (testable without threads); [watch] owns the cadence.

   - {e per-model SLOs}: each spec may carry its own latency objective;
     the service records every resolved request against it, and
     deadline shedding (when enabled in the config) consults it.

   Lock order: the registry mutex guards the memmgr and per-entry
   bookkeeping only; it is never held across a [Service] call that
   blocks ([submit] runs after the residency touch, outside the lock).
   Under the lock, [on_evict] only flips the evicted service's atomic
   weight cell and {!publish} only calls [Service.swap], which does not
   block either. *)

type spec = {
  name : string;
  path : string;
  slo : Kf_obs.Slo.t option;
}

type entry = {
  e_name : string;
  e_path : string;
  e_service : Service.t;
  mutable e_bytes : int;  (* residency charge; written under [mu] *)
  mutable e_reload : Kf_resil.Reload.state;  (* poller-owned *)
  e_evictions : int Atomic.t;
  e_remats : int Atomic.t;
  e_rejected : int Atomic.t;
  m_evictions : Kf_obs.Metrics.counter;
  m_remats : Kf_obs.Metrics.counter;
  m_rejected : Kf_obs.Metrics.counter;
  m_resident : Kf_obs.Metrics.gauge;
}

type t = {
  mm : Sysml.Memmgr.t;
  budget_bytes : int;
  entries : (string * entry) list;  (* spec order; small N *)
  mu : Mutex.t;
  mutable watcher : Thread.t option;
  mutable watching : bool;
}

let find_entry t name =
  match List.assoc_opt name t.entries with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Models: unknown model %S (serving: %s)" name
           (String.concat ", " (List.map fst t.entries)))

let names t = List.map fst t.entries

let service t name = (find_entry t name).e_service

let services t = List.map (fun (n, e) -> (n, e.e_service)) t.entries

(* Load a model file through the same verify-before-trust path the
   watcher uses, so a corrupt file fails loudly at [create] instead of
   serving garbage.  A rejection reason already names the file. *)
let load_verified path =
  match Kf_resil.Reload.check Kf_resil.Reload.initial ~path with
  | _, Kf_resil.Reload.Rejected reason -> invalid_arg ("Models: " ^ reason)
  | _, Kf_resil.Reload.Unchanged -> assert false (* initial state never dedups *)
  | st, Kf_resil.Reload.Swapped (ck, sum) -> (st, ck, sum)

(* The one way a generation goes live, for the provider (an evicted
   model's next batch) and {!poll} (a hot swap) alike: under the
   registry mutex, publish the weights, then make the model resident —
   evicting the LRU victim through [on_evict], or counting a use if it
   already was — and charge its bytes, so no other admission can evict
   it in between.  Both rejections come before any change: weights the
   budget cannot hold raise here, and [Service.swap] raises on a
   column-count change before it publishes, so a rejected candidate
   never goes live and residency is untouched. *)
let publish mm ~budget_bytes mu e ~checksum weights =
  let bytes = Kf_ml.Algorithm.weights_bytes weights in
  if bytes > budget_bytes then
    invalid_arg
      (Printf.sprintf "Models: %s: %d weight bytes exceed the %d-byte budget"
         e.e_name bytes budget_bytes);
  Mutex.protect mu (fun () ->
      ignore (Service.swap e.e_service ~checksum weights);
      if bytes <> e.e_bytes then Sysml.Memmgr.release mm ~key:e.e_name;
      ignore
        (Sysml.Memmgr.ensure_resident mm ~key:e.e_name ~bytes
           ~needs_conversion:false);
      e.e_bytes <- bytes;
      Kf_obs.Metrics.set e.m_resident (float_of_int bytes))

let create ?engine ?pool ?config ?max_resident_bytes device specs =
  if specs = [] then invalid_arg "Models.create: no models";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.name then
        invalid_arg
          (Printf.sprintf "Models.create: duplicate model name %S" s.name);
      Hashtbl.add seen s.name ())
    specs;
  let budget_bytes =
    match max_resident_bytes with
    | Some b when b > 0 -> b
    | Some _ -> invalid_arg "Models.create: max_resident_bytes must be > 0"
    | None -> device.Gpu_sim.Device.global_mem_bytes
  in
  (* entry lookup must work inside on_evict, which fires during
     [create]'s own ensure_resident calls — hence the forward cell *)
  let entries_cell = ref [] in
  let on_evict ~key =
    match List.assoc_opt key !entries_cell with
    | None -> ()
    | Some e ->
        if Service.unload e.e_service then begin
          Atomic.incr e.e_evictions;
          Kf_obs.Metrics.inc e.m_evictions;
          Kf_obs.Metrics.set e.m_resident 0.0
        end
  in
  let mm =
    Sysml.Memmgr.create ~on_evict
      { device with Gpu_sim.Device.global_mem_bytes = budget_bytes }
  in
  let mu = Mutex.create () in
  let entries =
    List.map
      (fun s ->
        let reload, ck, _sum = load_verified s.path in
        let algo, weights = Kf_ml.Registry.of_ckpt ck in
        let svc =
          Service.create ?engine ?pool ?config ~model:s.name ?slo:s.slo device
            ~algo ~weights ()
        in
        let labels = [ ("model", s.name) ] in
        let e =
          {
            e_name = s.name;
            e_path = s.path;
            e_service = svc;
            e_bytes = Kf_ml.Algorithm.weights_bytes weights;
            e_reload = reload;
            e_evictions = Atomic.make 0;
            e_remats = Atomic.make 0;
            e_rejected = Atomic.make 0;
            m_evictions =
              Kf_obs.Metrics.counter ~help:"Models evicted by the LRU budget."
                ~labels "kf_serve_evictions";
            m_remats =
              Kf_obs.Metrics.counter
                ~help:"Weight re-materialisations after eviction." ~labels
                "kf_serve_rematerializations";
            m_rejected =
              Kf_obs.Metrics.counter
                ~help:"Hot-swap candidates rejected before publication."
                ~labels "kf_serve_swap_rejected";
            m_resident =
              Kf_obs.Metrics.gauge ~help:"Resident weight bytes (0 = evicted)."
                ~labels "kf_serve_resident_bytes";
          }
        in
        (* the provider runs in the scheduler domain when a batch finds
           the weights evicted: re-read the file and verify it, then
           publish, which re-admits the model *)
        Service.set_provider svc (fun () ->
            let ck, sum = Kf_resil.Ckpt.read_with_checksum ~path:e.e_path in
            let _, weights = Kf_ml.Registry.of_ckpt ck in
            publish mm ~budget_bytes mu e ~checksum:sum weights;
            Atomic.incr e.e_remats;
            Kf_obs.Metrics.inc e.m_remats);
        (s.name, e))
      specs
  in
  entries_cell := entries;
  let t =
    {
      mm;
      budget_bytes;
      entries;
      mu;
      watcher = None;
      watching = false;
    }
  in
  (* admit in spec order: with a tight budget the *last* specs end up
     resident, the first become the LRU victims — deterministic, and
     exactly what the eviction tests pin down *)
  Mutex.lock t.mu;
  List.iter
    (fun (name, e) ->
      ignore
        (Sysml.Memmgr.ensure_resident t.mm ~key:name ~bytes:e.e_bytes
           ~needs_conversion:false);
      Kf_obs.Metrics.set e.m_resident (float_of_int e.e_bytes))
    entries;
  Mutex.unlock t.mu;
  t

(* Residency touch + admission, then the service's own bounded submit.
   The touch happens even when the weights are still loaded — that is
   what keeps the LRU order meaning "least recently *used*". *)
let submit t name row =
  let e = find_entry t name in
  Mutex.lock t.mu;
  (match
     Sysml.Memmgr.ensure_resident t.mm ~key:name ~bytes:e.e_bytes
       ~needs_conversion:false
   with
  | _cost -> Kf_obs.Metrics.set e.m_resident (float_of_int e.e_bytes)
  | exception exn ->
      Mutex.unlock t.mu;
      raise exn);
  Mutex.unlock t.mu;
  Service.submit e.e_service row

let resident t name =
  let e = find_entry t name in
  Service.loaded e.e_service

let resident_bytes t =
  Mutex.lock t.mu;
  let b = Sysml.Memmgr.resident_bytes t.mm in
  Mutex.unlock t.mu;
  b

(* --- hot-swap ------------------------------------------------------------- *)

(* One watch pass over every model: stat the file, read+verify it if it
   changed, publish only a verified generation (re-admitting a model
   the LRU had evicted).  Runs in the watcher thread or directly from
   tests; [e_reload] is owned by whoever calls this (the registry
   spawns at most one watcher). *)
let poll t =
  List.map
    (fun (name, e) ->
      let st, outcome = Kf_resil.Reload.check e.e_reload ~path:e.e_path in
      e.e_reload <- st;
      let reject reason =
        Atomic.incr e.e_rejected;
        Kf_obs.Metrics.inc e.m_rejected;
        Kf_resil.Reload.Rejected reason
      in
      let outcome =
        match outcome with
        | Kf_resil.Reload.Swapped (ck, sum) -> (
            (* decoding or publishing can still fail (wrong algorithm's
               payload shape, column-count change, weights larger than
               the budget): that is a rejection like any other — the old
               generation keeps serving *)
            match
              let _, weights = Kf_ml.Registry.of_ckpt ck in
              publish t.mm ~budget_bytes:t.budget_bytes t.mu e ~checksum:sum
                weights
            with
            | () -> outcome
            | exception (Invalid_argument reason | Failure reason) ->
                reject reason
            | exception Kf_resil.Ckpt.Corrupt reason -> reject reason)
        | Kf_resil.Reload.Rejected reason ->
            ignore (reject reason);
            outcome
        | Kf_resil.Reload.Unchanged -> outcome
      in
      (name, outcome))
    t.entries

let watch ?(period_s = 0.05) t =
  if period_s <= 0.0 then invalid_arg "Models.watch: period_s must be > 0";
  if t.watcher = None then begin
    t.watching <- true;
    t.watcher <-
      Some
        (Thread.create
           (fun () ->
             while t.watching do
               ignore (poll t);
               Unix.sleepf period_s
             done)
           ())
  end

let shutdown t =
  t.watching <- false;
  (match t.watcher with
  | Some th ->
      Thread.join th;
      t.watcher <- None
  | None -> ());
  List.iter (fun (_, e) -> Service.shutdown e.e_service) t.entries

(* --- reporting ------------------------------------------------------------ *)

let entry_json (name, e) =
  Kf_obs.Json.Obj
    [
      ("name", Kf_obs.Json.Str name);
      ("path", Kf_obs.Json.Str e.e_path);
      ("resident", Kf_obs.Json.Bool (Service.loaded e.e_service));
      ("bytes", Kf_obs.Json.Int e.e_bytes);
      ( "generation",
        Kf_obs.Json.Int
          (match Service.live_generation e.e_service with
          | Some g -> g
          | None -> 0) );
      ("evictions", Kf_obs.Json.Int (Atomic.get e.e_evictions));
      ("rematerializations", Kf_obs.Json.Int (Atomic.get e.e_remats));
      ("swaps_rejected", Kf_obs.Json.Int (Atomic.get e.e_rejected));
      ("service", Service.snapshot e.e_service);
    ]

let snapshot t =
  Kf_obs.Json.Obj
    [
      ("budget_bytes", Kf_obs.Json.Int t.budget_bytes);
      ("resident_bytes", Kf_obs.Json.Int (resident_bytes t));
      ("models", Kf_obs.Json.List (List.map entry_json t.entries));
    ]
