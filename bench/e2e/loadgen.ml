(* Load generators for serve-lr, driven from one thread.

   [Kf_serve.Driver.run] with [rps > 0] is not used: each of its clients
   sleeps after every [await], so it is a closed loop with think time,
   and it times requests from submission, which leaves out the queueing
   delay a stall imposes on the requests behind it.  [open_loop] below
   sends on a fixed schedule whatever the service does, and times each
   request from when it was due. *)

module Service = Kf_serve.Service

(* Pre-generated request rows with their reference scores, so the
   send loop only picks a row and every served score can be checked. *)
type payload = { rows : Service.row array; expected : float array }

let score_ok ~expected s =
  Float.abs (s -. expected) <= 1e-9 *. Float.max 1.0 (Float.abs expected)

type tally = {
  mutable attempted : int;
  mutable shed : int;
  mutable failed : int;  (** resolved [Failed] *)
  mutable wrong : int;  (** scored, but not the reference score *)
  mutable served : int;
}

let tally () = { attempted = 0; shed = 0; failed = 0; wrong = 0; served = 0 }

let record_outcome t ~expected = function
  | Service.Score s ->
      t.served <- t.served + 1;
      if not (score_ok ~expected s) then t.wrong <- t.wrong + 1
  | Service.Failed _ -> t.failed <- t.failed + 1

type open_result = {
  o_tally : tally;
  latency_ns : float array;
      (** per request in send order: due time to resolve, [nan] when
          shed or failed *)
  lag_ns : float array;  (** how late each request was sent *)
  submit_ns : float array;  (** how long each [Service.submit] call took *)
}

(* [Service.latency_ns] raises until the ticket resolves.  It serves as
   the poll; the outcome itself is read through [await], which
   synchronises with the scheduler domain. *)
let resolved t =
  match Service.latency_ns t with _ -> true | exception Invalid_argument _ -> false

(* How long before a due time the generator stops sleeping and spins:
   enough to cover a sleep's overshoot (50 us of timer slack plus the
   wake-up). *)
let spin_ns = 100_000

(* Send [rate * duration_s] requests, request [k] at its due time
   [start + k / rate] (or at once, when the generator runs late).  While
   ahead of schedule the generator spins, collecting resolved requests
   from the front of its in-flight queue, and each is timed to the moment
   it is seen resolved — on the monotonic clock, because the service's
   own timestamps move in whole microseconds.  The requests still in
   flight after the last send are polled the same way. *)
let open_loop svc p ~rate ~duration_s =
  let n = Stdlib.max 1 (int_of_float (rate *. duration_s)) in
  let nrows = Array.length p.rows in
  let tl = tally () in
  let latency = Array.make n nan and lag = Array.make n 0.0 in
  let submit_ns = Array.make n 0.0 in
  let pending = Queue.create () in
  let rec harvest () =
    match Queue.peek_opt pending with
    | Some (k, due, submit, t) when resolved t ->
        let seen = Probes.now_ns () in
        ignore (Queue.pop pending);
        let outcome = Service.await t in
        record_outcome tl ~expected:p.expected.(k mod nrows) outcome;
        (match outcome with
        | Service.Score _ ->
            latency.(k) <-
              float_of_int (Harness.due_latency_ns ~due_ns:due ~submit_ns:submit ~seen_ns:seen)
        | Service.Failed _ -> ());
        harvest ()
    | _ -> ()
  in
  let start_ns = Probes.now_ns () + 100_000 in
  for k = 0 to n - 1 do
    let due = Harness.due_ns ~start_ns ~rate k in
    (* With nothing in flight and the next send far off, sleep until
       shortly before it: a generator spinning at 100% of a CPU is the
       first thing a shared host preempts. *)
    let gap = due - Probes.now_ns () in
    if gap > 2 * spin_ns && Queue.is_empty pending then
      Unix.sleepf (float_of_int (gap - spin_ns) /. 1e9);
    while Probes.now_ns () < due do
      harvest ()
    done;
    let submit = Probes.now_ns () in
    lag.(k) <- float_of_int (submit - due);
    tl.attempted <- tl.attempted + 1;
    (match Service.submit svc p.rows.(k mod nrows) with
    | None -> tl.shed <- tl.shed + 1
    | Some t -> Queue.push (k, due, submit, t) pending);
    submit_ns.(k) <- float_of_int (Probes.now_ns () - submit)
  done;
  while not (Queue.is_empty pending) do
    harvest ()
  done;
  { o_tally = tl; latency_ns = latency; lag_ns = lag; submit_ns }

(* Several open-loop windows as one, in the order given. *)
let concat rs =
  let sum f = List.fold_left (fun a r -> a + f r.o_tally) 0 rs in
  let cat f = Array.concat (List.map f rs) in
  {
    o_tally =
      {
        attempted = sum (fun t -> t.attempted);
        shed = sum (fun t -> t.shed);
        failed = sum (fun t -> t.failed);
        wrong = sum (fun t -> t.wrong);
        served = sum (fun t -> t.served);
      };
    latency_ns = cat (fun r -> r.latency_ns);
    lag_ns = cat (fun r -> r.lag_ns);
    submit_ns = cat (fun r -> r.submit_ns);
  }

let served_latencies r =
  Array.of_list (List.filter (fun v -> not (Float.is_nan v)) (Array.to_list r.latency_ns))

(* Served within [limit_ns] of their due time, as a share of requests
   sent: a shed or failed request misses the limit. *)
let goodput r ~limit_ns =
  let ok = Array.fold_left (fun a v -> if v <= limit_ns then a + 1 else a) 0 r.latency_ns in
  float_of_int ok /. float_of_int (Array.length r.latency_ns)

(* Closed loop: keep [inflight] requests outstanding, replacing each as
   it resolves, for [duration_s].  Returns the tally and the rate of
   requests resolved inside the window. *)
let closed_loop svc p ~inflight ~duration_s =
  let nrows = Array.length p.rows in
  let tl = tally () in
  let q = Queue.create () in
  let k = ref 0 in
  let send () =
    tl.attempted <- tl.attempted + 1;
    (match Service.submit svc p.rows.(!k mod nrows) with
    | None -> tl.shed <- tl.shed + 1
    | Some t -> Queue.push (!k, t) q);
    incr k
  in
  let collect (j, t) =
    record_outcome tl ~expected:p.expected.(j mod nrows) (Service.await t)
  in
  let t0 = Probes.now_ns () in
  let stop = t0 + int_of_float (duration_s *. 1e9) in
  for _ = 1 to inflight do
    send ()
  done;
  let done_in_window = ref 0 in
  while Probes.now_ns () < stop && not (Queue.is_empty q) do
    collect (Queue.pop q);
    incr done_in_window;
    send ()
  done;
  let elapsed = Probes.now_ns () - t0 in
  Queue.iter collect q;
  (tl, float_of_int !done_in_window /. (float_of_int elapsed /. 1e9))
