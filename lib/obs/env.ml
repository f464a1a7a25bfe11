type error = { name : string; expected : string; got : string }

exception Malformed of error

let message { name; expected; got } =
  Printf.sprintf "kf: %s must be %s, got %s" name expected got

let () =
  Printexc.register_printer (function
    | Malformed e -> Some (message e)
    | _ -> None)

(* [of_string] sees the trimmed, non-empty value; [Error got] is how the
   message shows what it rejected. *)
type 'a t = {
  name : string;
  accepted : string;
  of_string : string -> ('a, string) result;
}

type info = {
  name : string;
  doc : string;
  accepted : string;
  default : string;
  check : string -> (unit, error) result;
}

let name (v : _ t) = v.name

let parse (v : _ t) raw =
  match String.trim raw with
  | "" -> Ok None
  | s -> (
      match v.of_string s with
      | Ok x -> Ok (Some x)
      | Error got -> Error { name = v.name; expected = v.accepted; got })

let get (v : _ t) =
  Option.bind (Sys.getenv_opt v.name) (fun raw ->
      match parse v raw with Ok x -> x | Error e -> raise (Malformed e))

(* Written only while modules initialise, before any domain starts. *)
let registry : info list ref = ref []

let declare ~accepted of_string name ~doc ~default =
  if List.exists (fun (i : info) -> i.name = name) !registry then
    invalid_arg (Printf.sprintf "Kf_obs.Env: %s is declared twice" name);
  let v = { name; accepted; of_string } in
  let check raw = Result.map ignore (parse v raw) in
  registry := { name; doc; accepted; default; check } :: !registry;
  v

let declared () =
  List.sort (fun (a : info) (b : info) -> compare a.name b.name) !registry

let check_all () =
  List.fold_left
    (fun acc (i : info) ->
      match (acc, Sys.getenv_opt i.name) with
      | Ok (), Some raw -> i.check raw
      | _ -> acc)
    (Ok ()) (declared ())

let quoted = Printf.sprintf "%S"

(* The range reads "between lo and hi" when both inclusive bounds are
   given, the conjunction of the bounds otherwise. *)
let bounded ~kind ~of_string ~to_string ?above ?min ?max =
  let bound op = Option.map (fun b -> " " ^ op ^ " " ^ to_string b) in
  let range =
    match (above, min, max) with
    | None, Some lo, Some hi ->
        Printf.sprintf " between %s and %s" (to_string lo) (to_string hi)
    | _ ->
        String.concat " and"
          (List.filter_map Fun.id
             [ bound ">" above; bound ">=" min; bound "<=" max ])
  in
  let holds cmp bound v = Option.fold ~none:true ~some:(cmp v) bound in
  let in_range v =
    holds ( > ) above v && holds ( >= ) min v && holds ( <= ) max v
  in
  declare ~accepted:(kind ^ range) (fun s ->
      match of_string s with
      | Some v when in_range v -> Ok v
      | Some v -> Error (to_string v)
      | None -> Error (quoted s))

let int ?min ?max =
  bounded ~kind:"an integer" ~of_string:int_of_string_opt
    ~to_string:string_of_int ?above:None ?min ?max

let float ?above ?min ?max =
  bounded ~kind:"a number" ~to_string:(Printf.sprintf "%g") ?above ?min ?max
    ~of_string:(fun s ->
      Option.bind (float_of_string_opt s) (fun v ->
          if Float.is_finite v then Some v else None))

let enum ~all ~to_string ~of_string =
  declare
    ~accepted:("one of " ^ String.concat ", " (List.map to_string all))
    (fun s -> Option.to_result ~none:(quoted s) (of_string s))

let bool =
  declare ~accepted:"one of on, off, 1, 0, true, false, yes, no" (fun s ->
      match String.lowercase_ascii s with
      | "on" | "1" | "true" | "yes" -> Ok true
      | "off" | "0" | "false" | "no" -> Ok false
      | _ -> Error (quoted s))

let path = declare ~accepted:"a file path" Result.ok

let custom ~accepted of_string =
  declare ~accepted (fun s ->
      Result.map_error (Printf.sprintf "%s (%s)" (quoted s)) (of_string s))
