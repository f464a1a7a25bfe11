exception Unhealthy of { point : string; index : int; value : float }

let checks = Kf_obs.Counter.make "resil.guard_checks"
let trips = Kf_obs.Counter.make "resil.guard_trips"

let guards_var =
  Kf_obs.Env.bool "KF_GUARDS"
    ~doc:"NaN/Inf scan of every guarded op's output, with retry on a trip."
    ~default:"on"

(* Every executor op checks the flag, so KF_GUARDS is read at the first
   check (or by [reload]) and latched: a read per op costs more than a
   small op's scan. *)
let flag = ref None

let reload () =
  flag := Some (Option.value (Kf_obs.Env.get guards_var) ~default:true)

let rec enabled () =
  match !flag with Some b -> b | None -> reload (); enabled ()

let with_enabled b f =
  let saved = !flag in
  flag := Some b;
  Fun.protect ~finally:(fun () -> flag := saved) f

(* Runs on every executor output, so the scan is a plain loop over
   unchecked reads.  [x -. x = 0.] is [Float.is_finite]'s own test,
   written out: a call across modules is not inlined and would box
   each element. *)
let first_bad v =
  let n = Array.length v in
  let i = ref 0 in
  while !i < n && (let x = Array.unsafe_get v !i in x -. x = 0.0) do
    incr i
  done;
  if !i < n then Some !i else None

let healthy v = first_bad v = None

let check_vec ~point v =
  if enabled () then begin
    Kf_obs.Counter.incr checks;
    match first_bad v with
    | None -> ()
    | Some i ->
        Kf_obs.Counter.incr trips;
        Kf_obs.Trace.instant "guard.trip"
          ~args:
            [
              ("point", point);
              ("index", string_of_int i);
              ("value", string_of_float v.(i));
            ];
        raise (Unhealthy { point; index = i; value = v.(i) })
  end
