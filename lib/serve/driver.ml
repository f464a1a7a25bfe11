(* Synthetic load driver for the scoring service.

   Each client is a POSIX thread (not a domain: clients spend their time
   blocked in [Service.await], so threads multiplex fine on one core and
   leave the domains to the scheduler and the executor pool).  Closed
   loop ([rps = 0]): each client keeps exactly one request in flight.
   Open loop: each client sends on a fixed schedule of [rps / clients]
   and times every request from when it was due, so the queueing a slow
   service causes is counted rather than slowing the load down. *)

type cfg = {
  clients : int;
  rps : float;  (** 0. = closed loop *)
  duration_s : float;
  seed : int;
}

type summary = {
  sent : int;
  ok : int;
  shed : int;
  failed : int;
  wall_s : float;
  throughput_rps : float;  (** ok / wall *)
  latency_us : Kf_obs.Histogram.t;  (** client-observed, merged over clients *)
}

type client_tally = {
  mutable c_sent : int;
  mutable c_ok : int;
  mutable c_shed : int;
  mutable c_failed : int;
  c_hist : Kf_obs.Histogram.t;
}

(* Deterministic per-client row generator: a dense row of small values
   in [-1, 1).  Simple splitmix-style mixing; no dependency on the
   matrix generators so the driver stays reusable against any model. *)
let row_gen ~seed ~client ~cols =
  let state = ref (seed + (client * 0x9e3779b9) + 1) in
  let next () =
    let z = !state + 0x9e3779b9 in
    state := z;
    let z = (z lxor (z lsr 16)) * 0x45d9f3b in
    let z = (z lxor (z lsr 16)) * 0x45d9f3b in
    let z = z lxor (z lsr 16) in
    float_of_int (z land 0xffff) /. 32768.0 -. 1.0
  in
  fun () -> Service.Dense_row (Array.init cols (fun _ -> next ()))

(* One client: [submit] sends its next request.  Closed loop: the next
   request goes out as soon as the previous one resolves, until the run
   ends.  Open loop: request [k] is due at [start_ns + k * clients / rps]
   and every request due before the end is sent — early, the client
   sleeps until the due time; late (the previous request outlasted the
   interval), it sends at once and adds its lateness to the request's
   latency.  The lateness is taken when the client is ready to send, so
   the sleep's own overshoot is not counted. *)
let client_loop ~cfg ~start_ns ~submit tally =
  let stop_ns = start_ns + int_of_float (cfg.duration_s *. 1e9) in
  let interval_ns = float_of_int cfg.clients /. cfg.rps *. 1e9 in
  let rec loop k =
    let ready = Kf_obs.Clock.now_ns () in
    let due =
      if cfg.rps = 0.0 then ready
      else start_ns + int_of_float (float_of_int k *. interval_ns)
    in
    if due < stop_ns then begin
      if ready < due then Unix.sleepf (float_of_int (due - ready) /. 1e9);
      let late = Stdlib.max 0 (ready - due) in
      tally.c_sent <- tally.c_sent + 1;
      (match submit () with
      | None -> tally.c_shed <- tally.c_shed + 1
      | Some ticket -> (
          match Service.await ticket with
          | Service.Score _ ->
              tally.c_ok <- tally.c_ok + 1;
              Kf_obs.Histogram.record tally.c_hist
                (Kf_obs.Clock.ns_to_us (late + Service.latency_ns ticket))
          | Service.Failed _ -> tally.c_failed <- tally.c_failed + 1));
      loop (k + 1)
    end
  in
  loop 0

(* [submit_for client] builds that client's submit function; it runs on
   the client's own thread. *)
let spawn_clients ~cfg ~submit_for =
  if cfg.clients < 1 then invalid_arg "Driver.run: need at least one client";
  if cfg.duration_s <= 0.0 then invalid_arg "Driver.run: duration must be > 0";
  let tallies =
    Array.init cfg.clients (fun _ ->
        { c_sent = 0; c_ok = 0; c_shed = 0; c_failed = 0;
          c_hist = Kf_obs.Histogram.create () })
  in
  let start_ns = Kf_obs.Clock.now_ns () in
  let threads =
    Array.mapi
      (fun client tally ->
        Thread.create
          (fun () ->
            client_loop ~cfg ~start_ns ~submit:(submit_for client) tally)
          ())
      tallies
  in
  Array.iter Thread.join threads;
  let wall_s =
    float_of_int (Kf_obs.Clock.now_ns () - start_ns) /. 1e9
  in
  let latency_us = Kf_obs.Histogram.create () in
  Array.iter (fun t -> Kf_obs.Histogram.merge ~into:latency_us t.c_hist) tallies;
  let sum f = Array.fold_left (fun a t -> a + f t) 0 tallies in
  let ok = sum (fun t -> t.c_ok) in
  {
    sent = sum (fun t -> t.c_sent);
    ok;
    shed = sum (fun t -> t.c_shed);
    failed = sum (fun t -> t.c_failed);
    wall_s;
    throughput_rps = (if wall_s > 0.0 then float_of_int ok /. wall_s else 0.0);
    latency_us;
  }

let run svc ~cols cfg =
  spawn_clients ~cfg ~submit_for:(fun client ->
      let make_row = row_gen ~seed:cfg.seed ~client ~cols in
      fun () -> Service.submit svc (make_row ()))

(* Multi-model load: each client round-robins across every registered
   model (starting offset staggered by client id so model 0 is not
   systematically favoured), submitting through the registry so the
   residency LRU sees every request.  One tally per client as in [run];
   the summary aggregates over models — per-model numbers live in the
   registry's own stats. *)
let run_models models cfg =
  let targets = Array.of_list (Models.services models) in
  if Array.length targets = 0 then invalid_arg "Driver.run_models: no models";
  spawn_clients ~cfg ~submit_for:(fun client ->
      let gens =
        Array.map
          (fun (name, svc) ->
            (name, row_gen ~seed:cfg.seed ~client ~cols:(Service.cols svc)))
          targets
      in
      let turn = ref client in
      fun () ->
        let name, make_row = gens.(!turn mod Array.length gens) in
        incr turn;
        Models.submit models name (make_row ()))

(* Pipelined single-thread load: keep [inflight] requests outstanding
   by submitting a burst and awaiting it before the next.  One thread
   and pre-generated rows keep the per-request driver cost to a queue
   push and an await, so the measurement exposes the service's own
   per-launch economics rather than client thread-wakeup costs — this
   is what the serving benchmark uses. *)
let run_inflight svc ~cols ~inflight ~duration_s ~seed =
  if inflight < 1 then invalid_arg "Driver.run_inflight: inflight must be >= 1";
  if duration_s <= 0.0 then
    invalid_arg "Driver.run_inflight: duration must be > 0";
  let gen = row_gen ~seed ~client:0 ~cols in
  let nrows = 256 in
  let rows = Array.init nrows (fun _ -> gen ()) in
  let hist = Kf_obs.Histogram.create () in
  let sent = ref 0 and ok = ref 0 and shed = ref 0 and failed = ref 0 in
  let tickets = Array.make inflight None in
  let start_ns = Kf_obs.Clock.now_ns () in
  let stop_ns = start_ns + int_of_float (duration_s *. 1e9) in
  while Kf_obs.Clock.now_ns () < stop_ns do
    for i = 0 to inflight - 1 do
      tickets.(i) <- Service.submit svc rows.(!sent mod nrows);
      incr sent;
      if tickets.(i) = None then incr shed
    done;
    Array.iteri
      (fun i t ->
        match t with
        | None -> ()
        | Some t -> (
            (match Service.await t with
            | Service.Score _ ->
                incr ok;
                Kf_obs.Histogram.record hist
                  (Kf_obs.Clock.ns_to_us (Service.latency_ns t))
            | Service.Failed _ -> incr failed);
            tickets.(i) <- None))
      tickets
  done;
  let wall_s = float_of_int (Kf_obs.Clock.now_ns () - start_ns) /. 1e9 in
  {
    sent = !sent;
    ok = !ok;
    shed = !shed;
    failed = !failed;
    wall_s;
    throughput_rps = (if wall_s > 0.0 then float_of_int !ok /. wall_s else 0.0);
    latency_us = hist;
  }

let summary_json ?service_stats s =
  let base =
    [
      ("sent", Kf_obs.Json.Int s.sent);
      ("ok", Kf_obs.Json.Int s.ok);
      ("shed", Kf_obs.Json.Int s.shed);
      ("failed", Kf_obs.Json.Int s.failed);
      ("wall_s", Kf_obs.Json.Float s.wall_s);
      ("throughput_rps", Kf_obs.Json.Float s.throughput_rps);
      ("p50_us", Kf_obs.Json.Float (Kf_obs.Histogram.quantile s.latency_us 0.5));
      ("p95_us", Kf_obs.Json.Float (Kf_obs.Histogram.quantile s.latency_us 0.95));
      ("p99_us", Kf_obs.Json.Float (Kf_obs.Histogram.quantile s.latency_us 0.99));
      ("latency_us", Kf_obs.Histogram.summary_json s.latency_us);
    ]
  in
  let extra =
    match service_stats with
    | None -> []
    | Some st -> [ ("service", Service.stats_json st) ]
  in
  Kf_obs.Json.Obj (base @ extra)
