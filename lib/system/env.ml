let parse ~kind ~of_string ~to_string ?min ?max name =
  match Sys.getenv_opt name with
  | None -> Ok None
  | Some raw -> (
      let bounds =
        match (min, max) with
        | Some lo, Some hi ->
            Printf.sprintf " between %s and %s" (to_string lo) (to_string hi)
        | Some lo, None -> Printf.sprintf " >= %s" (to_string lo)
        | None, Some hi -> Printf.sprintf " <= %s" (to_string hi)
        | None, None -> ""
      in
      let reject got =
        Error (Printf.sprintf "kf: %s must be %s%s, got %s" name kind bounds got)
      in
      let in_bounds v =
        (match min with Some lo -> v >= lo | None -> true)
        && match max with Some hi -> v <= hi | None -> true
      in
      match of_string (String.trim raw) with
      | Some v when in_bounds v -> Ok (Some v)
      | Some v -> reject (to_string v)
      | None -> reject (Printf.sprintf "%S" raw))

let int_result ?min ?max name =
  parse ~kind:"an integer" ~of_string:int_of_string_opt
    ~to_string:string_of_int ?min ?max name

let float_result ?min ?max name =
  parse ~kind:"a number"
    ~of_string:(fun s ->
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Some v
      | _ -> None)
    ~to_string:(Printf.sprintf "%g") ?min ?max name

let exit_2 = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s\n%!" msg;
      exit 2

(* Enumerated variables: the message lists every accepted name. *)
let enum_result ~all ~of_string ~to_string name =
  parse
    ~kind:
      (Printf.sprintf "one of %s" (String.concat ", " (List.map to_string all)))
    ~of_string ~to_string name

let engine_result =
  enum_result ~all:Fusion.Executor.engines
    ~of_string:Fusion.Executor.engine_of_string
    ~to_string:Fusion.Executor.engine_to_string

let host_variant_result =
  enum_result ~all:Fusion.Host_fused.variants
    ~of_string:Fusion.Host_fused.variant_of_name
    ~to_string:Fusion.Host_fused.variant_name

let int ?min ?max name = exit_2 (int_result ?min ?max name)

let float ?min ?max name = exit_2 (float_result ?min ?max name)

let engine name = exit_2 (engine_result name)

let host_variant name = exit_2 (host_variant_result name)
