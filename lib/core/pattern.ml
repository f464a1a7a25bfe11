type instantiation =
  | Xt_y
  | Xt_X_y
  | Xt_v_X_y
  | Xt_X_y_plus_z
  | Full_pattern

let all = [ Xt_y; Xt_X_y; Xt_v_X_y; Xt_X_y_plus_z; Full_pattern ]

let name = function
  | Xt_y -> "a*X^T*y"
  | Xt_X_y -> "X^T*(X*y)"
  | Xt_v_X_y -> "X^T*(v.(X*y))"
  | Xt_X_y_plus_z -> "X^T*(X*y) + b*z"
  | Full_pattern -> "a*X^T*(v.(X*y)) + b*z"

type shape = {
  first_multiply : bool;
  weighted : bool;
  additive_tail : bool;
}

let classify_shape = function
  | { first_multiply = false; weighted = false; additive_tail = false } ->
      Xt_y
  | { first_multiply = true; weighted = false; additive_tail = false } ->
      Xt_X_y
  | { first_multiply = true; weighted = true; additive_tail = false } ->
      Xt_v_X_y
  | { first_multiply = true; weighted = false; additive_tail = true } ->
      Xt_X_y_plus_z
  | { first_multiply = true; weighted = true; additive_tail = true } ->
      Full_pattern
  | { first_multiply = false; _ } ->
      invalid_arg "Pattern.classify_shape: v or z without the first multiply"

(* A fused call can stop partway down the chain and leave the rest to
   separate kernels: the only valid cut points are below the additive
   tail (compute [beta * z] with an axpy) and below the element-wise /
   first multiply (materialise the inner vector, then run a plain
   [X^T x p]).  Cutting *inside* the weighted multiply is not a prefix —
   [X^T x (X x y)] is not a sub-computation of [X^T x (v .* (X x y))]. *)
let partials = function
  | Xt_y -> [ Xt_y ]
  | Xt_X_y -> [ Xt_X_y; Xt_y ]
  | Xt_v_X_y -> [ Xt_v_X_y; Xt_y ]
  | Xt_X_y_plus_z -> [ Xt_X_y_plus_z; Xt_X_y; Xt_y ]
  | Full_pattern -> [ Full_pattern; Xt_v_X_y; Xt_y ]

let paper_algorithms = function
  | Xt_y -> [ "LR"; "GLM"; "LogReg"; "SVM"; "HITS" ]
  | Xt_X_y -> [ "LR"; "GLM"; "SVM"; "HITS" ]
  | Xt_v_X_y -> [ "GLM"; "LogReg" ]
  | Xt_X_y_plus_z -> [ "LR"; "SVM" ]
  | Full_pattern -> [ "LogReg" ]

(* ---- pattern-family registration ---------------------------------------- *)

let family_id = "eq1"

let inst_key = function
  | Xt_y -> "xt_y"
  | Xt_X_y -> "xt_x_y"
  | Xt_v_X_y -> "xt_v_x_y"
  | Xt_X_y_plus_z -> "xt_x_y_plus_z"
  | Full_pattern -> "full"

let descriptor inst =
  {
    Pattern_family.family = family_id;
    inst = inst_key inst;
    label = name inst;
  }

let of_descriptor (d : Pattern_family.descriptor) =
  if d.family <> family_id then None
  else List.find_opt (fun i -> inst_key i = d.inst) all

module Family = struct
  let family = family_id

  let instantiations = List.map descriptor all

  let as_inst d =
    match of_descriptor d with
    | Some i -> i
    | None -> invalid_arg ("Pattern.Family: not an eq1 descriptor: " ^ d.inst)

  let partials d = List.map descriptor (partials (as_inst d))

  let paper_algorithms d = paper_algorithms (as_inst d)
end

let () = Pattern_family.register (module Family)

module Trace = struct
  (* Counts are keyed by the family-qualified descriptor key, so one
     trace covers every registered family; the Equation-1 accessors
     below keep their original closed-enum signatures on top. *)
  type t = { algorithm : string; counts : (string, int) Hashtbl.t }

  let create ~algorithm = { algorithm; counts = Hashtbl.create 8 }

  let record_desc t (d : Pattern_family.descriptor) =
    let k = Pattern_family.key d in
    let current = Option.value ~default:0 (Hashtbl.find_opt t.counts k) in
    Hashtbl.replace t.counts k (current + 1)

  let record t inst = record_desc t (descriptor inst)

  let algorithm t = t.algorithm

  let desc_count t d =
    Option.value ~default:0 (Hashtbl.find_opt t.counts (Pattern_family.key d))

  let count t inst = desc_count t (descriptor inst)

  let instantiations t =
    List.filter (fun i -> count t i > 0) all

  let entries t =
    List.filter_map
      (fun d ->
        match desc_count t d with 0 -> None | n -> Some (d, n))
      (Pattern_family.all_instantiations ())
end
