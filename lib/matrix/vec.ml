type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let fill x v = Array.fill x 0 (Array.length x) v

let check_same_length name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

(* The destination of an element-wise op: [into] (any vector of the
   right length, the inputs included) or a fresh one. *)
let output name n = function
  | None -> Array.create_float n
  | Some o ->
      if Array.length o <> n then
        invalid_arg
          (Printf.sprintf "Vec.%s: into length mismatch (%d vs %d)" name
             (Array.length o) n);
      o

let scale ?into a x =
  let out = output "scale" (Array.length x) into in
  for i = 0 to Array.length x - 1 do
    out.(i) <- a *. x.(i)
  done;
  out

let add_scaled ?into a x y =
  check_same_length "add_scaled" x y;
  let out = output "add_scaled" (Array.length x) into in
  for i = 0 to Array.length x - 1 do
    out.(i) <- (a *. x.(i)) +. y.(i)
  done;
  out

let scal a x = ignore (scale ~into:x a x)

let axpy a x y =
  check_same_length "axpy" x y;
  ignore (add_scaled ~into:y a x y)

let dot x y =
  check_same_length "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let nrm2 x = sqrt (dot x x)

let sum x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. x.(i)
  done;
  !acc

(* The element-wise constructors write one loop into a fresh float
   array: no closure call and no boxed float per element. *)

let mul_elementwise v p =
  check_same_length "mul_elementwise" v p;
  let out = Array.create_float (Array.length v) in
  for i = 0 to Array.length v - 1 do
    out.(i) <- v.(i) *. p.(i)
  done;
  out

let add x y =
  check_same_length "add" x y;
  let out = Array.create_float (Array.length x) in
  for i = 0 to Array.length x - 1 do
    out.(i) <- x.(i) +. y.(i)
  done;
  out

let sub x y =
  check_same_length "sub" x y;
  let out = Array.create_float (Array.length x) in
  for i = 0 to Array.length x - 1 do
    out.(i) <- x.(i) -. y.(i)
  done;
  out

let max_abs_diff x y =
  check_same_length "max_abs_diff" x y;
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = Float.abs (x.(i) -. y.(i)) in
    if d > !m then m := d
  done;
  !m

let approx_equal ?(tol = 1e-9) x y =
  if Array.length x <> Array.length y then false
  else begin
    let ok = ref true in
    for i = 0 to Array.length x - 1 do
      let scale = Float.max 1.0 (Float.max (Float.abs x.(i)) (Float.abs y.(i))) in
      if Float.abs (x.(i) -. y.(i)) > tol *. scale then ok := false
    done;
    !ok
  end

let pp fmt x =
  Format.fprintf fmt "[|";
  Array.iteri
    (fun i xi ->
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "%g" xi)
    x;
  Format.fprintf fmt "|]"
