type t = { cname : string; cell : int Atomic.t }

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let registry_mutex = Mutex.create ()

let make cname =
  Mutex.lock registry_mutex;
  let t =
    match Hashtbl.find_opt registry cname with
    | Some t -> t
    | None ->
        let t = { cname; cell = Atomic.make 0 } in
        Hashtbl.add registry cname t;
        t
  in
  Mutex.unlock registry_mutex;
  t

let name t = t.cname

let add t n =
  if n < 0 then invalid_arg "Counter.add: counters are monotonic";
  if n > 0 then ignore (Atomic.fetch_and_add t.cell n)

let incr t = ignore (Atomic.fetch_and_add t.cell 1)

let value t = Atomic.get t.cell

let all () =
  Mutex.lock registry_mutex;
  let items =
    Hashtbl.fold (fun cname t acc -> (cname, Atomic.get t.cell) :: acc)
      registry []
  in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) items

type snapshot = (string * int) list

let snapshot = all

(* Per-name deltas between two snapshots: an interval measured without
   resetting the process-wide counters out from under every other
   reader.  Counters born after [before] count from zero; a counter
   that shrank (only possible across a [reset_all]) clamps to zero
   rather than reporting a negative rate. *)
let snapshot_diff ~before ~after =
  List.map
    (fun (name, v) ->
      let prev =
        match List.assoc_opt name before with Some p -> p | None -> 0
      in
      (name, Stdlib.max 0 (v - prev)))
    after

let reset_all () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ t -> Atomic.set t.cell 0) registry;
  Mutex.unlock registry_mutex

let to_json () = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (all ()))
