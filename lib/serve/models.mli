(** Multi-model serving registry.

    Runs N named models over one device, each behind its own
    {!Service}, adding what a single service cannot decide alone:

    - {b LRU residency under a byte budget} — loaded weights are
      charged to a {!Sysml.Memmgr} sized by [max_resident_bytes];
      {!submit} touches the model's block, and admitting a model the
      budget cannot hold evicts the least-recently-used one (its
      service's weights unload atomically).  Eviction never loses
      requests: the next batch re-materialises the weights from the
      model file through the service's provider, which re-admits the
      model first (evicting the LRU victim), so a batch already in
      flight for an evicted model does not push residency past the
      budget.

    - {b zero-downtime hot-swap} — every model's checkpoint file is
      watched ({!Kf_resil.Reload}); a candidate is fully read and its
      checksum verified before {!Service.swap} publishes it, so torn or
      corrupt files are rejected while the previous generation keeps
      serving.

    - {b per-model SLOs} — each {!spec} may attach its own latency
      objective.

    All registry metrics carry a [model] label, so the scrape endpoint
    separates models without extra wiring. *)

type spec = {
  name : string;  (** registry key and metric/SLO label *)
  path : string;  (** model file written by [kf train --save-model] *)
  slo : Kf_obs.Slo.t option;
}

type t

val create :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?config:Service.config ->
  ?max_resident_bytes:int ->
  Gpu_sim.Device.t ->
  spec list ->
  t
(** Load and verify every model file (raising [Invalid_argument] on a
    missing/corrupt one — a server must not start on garbage), build
    one service per spec, and admit them in spec order against the
    budget (default: the device's full memory), so with a tight budget
    the earliest specs are the first LRU victims.  Raises on duplicate
    names or an empty list. *)

val names : t -> string list
(** In spec order. *)

val service : t -> string -> Service.t
(** Raises [Invalid_argument] on an unknown name. *)

val services : t -> (string * Service.t) list

val submit : t -> string -> Service.row -> Service.ticket option
(** Touch the model's residency block (evicting LRU victims if it had
    to be re-admitted), then {!Service.submit}.  [None] when the
    service sheds. *)

val resident : t -> string -> bool
(** Whether the model's weights are currently loaded. *)

val resident_bytes : t -> int
(** Total bytes charged to the budget right now. *)

val poll : t -> (string * Kf_resil.Reload.outcome) list
(** One synchronous watch pass over every model, in spec order: stat
    the file, read and verify it if it changed, publish only a verified
    generation.  Publishing makes the model resident, the way a
    re-materialisation does: an evicted model is re-admitted (evicting
    the LRU victim), and a verified swap counts as a use for LRU
    order.  A candidate that fails decode or publication
    (column-count change, wrong payload shape, weights larger than the
    byte budget) is reported — and counted — as [Rejected] and changes
    nothing: the old generation keeps serving and residency is
    untouched.  Tests drive this directly; production
    uses {!watch}.  At most one caller at a time (the watcher thread,
    or the test). *)

val watch : ?period_s:float -> t -> unit
(** Spawn the polling thread (default every 50 ms).  Idempotent;
    {!shutdown} stops it. *)

val shutdown : t -> unit
(** Stop the watcher, then drain and shut down every service. *)

val snapshot : t -> Kf_obs.Json.t
(** [{budget_bytes; resident_bytes; models: [{name; path; resident;
    bytes; generation; evictions; rematerializations; swaps_rejected;
    service}]}] — the per-model [service] field is
    {!Service.snapshot}.  What multi-model [kf serve --json] embeds
    under ["registry"]. *)
