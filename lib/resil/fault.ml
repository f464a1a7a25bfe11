type kind = Launch | Nan | Inf | Alloc | Crash | Trunc

exception Injected of { point : string; kind : kind }

let kind_name = function
  | Launch -> "launch"
  | Nan -> "nan"
  | Inf -> "inf"
  | Alloc -> "alloc"
  | Crash -> "crash"
  | Trunc -> "trunc"

let kind_of_name = function
  | "launch" -> Some Launch
  | "nan" -> Some Nan
  | "inf" -> Some Inf
  | "alloc" -> Some Alloc
  | "crash" -> Some Crash
  | "trunc" -> Some Trunc
  | _ -> None

type rule = {
  kind : kind;
  p : float;  (** fire probability per arrival; 0. means "not probabilistic" *)
  after : int option;  (** fire every arrival past this many *)
  every : int option;  (** fire when (arrival + seed) mod every = 0 *)
  times : int option;  (** cap on total fires *)
  point_filter : string option;  (** substring match on the point name *)
  seed : int;
  mutable state : int64;  (** splitmix64 stream *)
  mutable arrivals : int;
  mutable fires : int;
}

(* Configuration is written once (coordinator thread) and read from the
   same thread at every fault point; pool workers never consult it, so
   plain mutable state is safe. *)
let rules : rule list ref = ref []
let configured = ref false
let armed_depth = ref 0
let injected = Kf_obs.Counter.make "resil.faults_injected"

let splitmix64 st =
  let z = Int64.add st 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  (z, Int64.logxor z (Int64.shift_right_logical z 31))

(* uniform in [0,1) from the top 53 bits *)
let next_float r =
  let st, z = splitmix64 r.state in
  r.state <- st;
  Int64.to_float (Int64.shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)

let parse_rule s =
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> Error "empty fault rule"
  | kind_s :: kvs -> (
      match kind_of_name (String.lowercase_ascii kind_s) with
      | None -> Error (Printf.sprintf "unknown fault kind %S" kind_s)
      | Some kind -> (
          let r =
            ref
              {
                kind;
                p = 0.;
                after = None;
                every = None;
                times = None;
                point_filter = None;
                seed = 0;
                state = 0L;
                arrivals = 0;
                fires = 0;
              }
          in
          let err = ref None in
          List.iter
            (fun kv ->
              if !err = None then
                match String.index_opt kv '=' with
                | None ->
                    err := Some (Printf.sprintf "expected key=value, got %S" kv)
                | Some i -> (
                    let k = String.sub kv 0 i in
                    let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                    let int_v () =
                      match int_of_string_opt v with
                      | Some n when n >= 0 -> Ok n
                      | _ ->
                          Error
                            (Printf.sprintf "%s= wants a non-negative int, got %S"
                               k v)
                    in
                    match k with
                    | "p" -> (
                        match float_of_string_opt v with
                        | Some p when p >= 0. && p <= 1. -> r := { !r with p }
                        | _ ->
                            err :=
                              Some
                                (Printf.sprintf
                                   "p= wants a probability in [0,1], got %S" v))
                    | "seed" -> (
                        match int_v () with
                        | Ok n -> r := { !r with seed = n }
                        | Error e -> err := Some e)
                    | "after" -> (
                        match int_v () with
                        | Ok n -> r := { !r with after = Some n }
                        | Error e -> err := Some e)
                    | "every" -> (
                        match int_v () with
                        | Ok n when n > 0 -> r := { !r with every = Some n }
                        | Ok _ -> err := Some "every= wants a positive int"
                        | Error e -> err := Some e)
                    | "times" -> (
                        match int_v () with
                        | Ok n -> r := { !r with times = Some n }
                        | Error e -> err := Some e)
                    | "point" -> r := { !r with point_filter = Some v }
                    | _ -> err := Some (Printf.sprintf "unknown key %S" k)))
            kvs;
          match !err with
          | Some e -> Error e
          | None ->
              let r = !r in
              if r.p = 0. && r.after = None && r.every = None then
                Error
                  (Printf.sprintf
                     "rule %S never fires: give it p=, after= or every="
                     (String.trim s))
              else
                Ok
                  {
                    r with
                    state = Int64.of_int ((r.seed * 2) + 1)
                    (* odd so seed=0 still yields a non-trivial stream *);
                  }))

let rules_of_spec spec =
  match String.trim spec with
  | "" -> Ok []
  | spec ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
            match parse_rule s with
            | Ok r -> go (r :: acc) rest
            | Error e -> Error (Printf.sprintf "fault rule %S: %s" s e))
      in
      go [] (String.split_on_char ',' spec)

let spec_var =
  Kf_obs.Env.custom ~accepted:"a fault spec (DESIGN.md section 10)"
    rules_of_spec "KF_FAULTS"
    ~doc:"Deterministic fault-injection rules (--faults)." ~default:"none"

let parse spec =
  configured := true;
  Result.map (fun rs -> rules := rs) (rules_of_spec spec)

let clear () =
  configured := true;
  rules := []

let reload () =
  rules := Option.value (Kf_obs.Env.get spec_var) ~default:[];
  configured := true

(* Latched at the first fault point: the rules carry per-rule arrival
   counters, so re-reading would restart every stream. *)
let ensure_configured () = if not !configured then reload ()

let active () =
  ensure_configured ();
  !rules <> []

let with_config spec f =
  ensure_configured ();
  let saved = !rules in
  Result.iter_error
    (fun msg -> invalid_arg ("Kf_resil.Fault.with_config: " ^ msg))
    (parse spec);
  Fun.protect
    ~finally:(fun () -> rules := saved)
    f

let with_arm f =
  incr armed_depth;
  Fun.protect ~finally:(fun () -> decr armed_depth) f

let armed () = !armed_depth > 0

(* Which kinds only make sense inside a recovery scope. *)
let needs_arm = function
  | Launch | Nan | Inf | Crash -> true
  | Alloc | Trunc -> false

let rule_matches r kind ~point =
  r.kind = kind
  && (match r.point_filter with
     | None -> true
     | Some sub ->
         let n = String.length sub and m = String.length point in
         let rec at i = i + n <= m && (String.sub point i n = sub || at (i + 1)) in
         n = 0 || at 0)

let rule_fires r =
  r.arrivals <- r.arrivals + 1;
  let capped =
    match r.times with Some t -> r.fires >= t | None -> false
  in
  if capped then false
  else
    let hit =
      (match r.after with Some n -> r.arrivals > n | None -> false)
      || (match r.every with
         | Some k -> (r.arrivals - 1 + r.seed) mod k = 0
         | None -> false)
      || (r.p > 0. && next_float r < r.p)
    in
    if hit then (
      r.fires <- r.fires + 1;
      Kf_obs.Counter.incr injected;
      true)
    else false

let decide kind ~point =
  ensure_configured ();
  if !rules = [] then None
  else if needs_arm kind && !armed_depth = 0 then None
  else
    List.fold_left
      (fun acc r ->
        match acc with
        | Some _ -> acc
        | None ->
            if rule_matches r kind ~point && rule_fires r then Some r else None)
      None !rules

let fire kind ~point =
  match decide kind ~point with
  | Some r ->
      Kf_obs.Trace.instant "fault.injected"
        ~args:[ ("kind", kind_name r.kind); ("point", point) ];
      true
  | None -> false

let check kind ~point =
  if fire kind ~point then raise (Injected { point; kind })

let poison ~point v =
  if Array.length v > 0 then begin
    (match decide Nan ~point with
    | Some r ->
        v.(r.fires mod Array.length v) <- Float.nan;
        Kf_obs.Trace.instant "fault.injected"
          ~args:[ ("kind", "nan"); ("point", point) ]
    | None -> ());
    match decide Inf ~point with
    | Some r ->
        v.((r.fires * 7) mod Array.length v) <- Float.infinity;
        Kf_obs.Trace.instant "fault.injected"
          ~args:[ ("kind", "inf"); ("point", point) ]
    | None -> ()
  end

let injected_total () = Kf_obs.Counter.value injected
