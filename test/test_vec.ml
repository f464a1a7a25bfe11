(* Unit and property tests for the vector substrate. *)
open Matrix

let check_float = Alcotest.(check (float 1e-12))

let test_create_zeroed () =
  let v = Vec.create 5 in
  Alcotest.(check int) "length" 5 (Array.length v);
  Array.iter (fun x -> check_float "zero" 0.0 x) v

let test_scal () =
  let v = [| 1.0; -2.0; 3.5 |] in
  Vec.scal 2.0 v;
  Alcotest.(check (array (float 1e-12))) "scaled" [| 2.0; -4.0; 7.0 |] v

let test_scal_zero () =
  let v = [| 1.0; 2.0 |] in
  Vec.scal 0.0 v;
  Alcotest.(check (array (float 1e-12))) "zeroed" [| 0.0; 0.0 |] v

let test_axpy () =
  let x = [| 1.0; 2.0 |] and y = [| 10.0; 20.0 |] in
  Vec.axpy 3.0 x y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 13.0; 26.0 |] y

let test_axpy_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vec.axpy: length mismatch (2 vs 3)") (fun () ->
      Vec.axpy 1.0 [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |])

let test_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_dot_empty () = check_float "empty dot" 0.0 (Vec.dot [||] [||])

let test_nrm2 () = check_float "3-4-5" 5.0 (Vec.nrm2 [| 3.0; 4.0 |])

let test_sum () = check_float "sum" 6.0 (Vec.sum [| 1.0; 2.0; 3.0 |])

let test_mul_elementwise () =
  Alcotest.(check (array (float 1e-12)))
    "hadamard" [| 4.0; 10.0 |]
    (Vec.mul_elementwise [| 1.0; 2.0 |] [| 4.0; 5.0 |])

let test_add_sub () =
  let a = [| 1.0; 2.0 |] and b = [| 3.0; 5.0 |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 4.0; 7.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -2.0; -3.0 |] (Vec.sub a b)

let test_max_abs_diff () =
  check_float "diff" 2.5
    (Vec.max_abs_diff [| 1.0; 0.0 |] [| 1.0; 2.5 |])

let test_approx_equal () =
  Alcotest.(check bool) "equal" true
    (Vec.approx_equal [| 1.0 |] [| 1.0 +. 1e-12 |]);
  Alcotest.(check bool) "not equal" false
    (Vec.approx_equal [| 1.0 |] [| 1.1 |]);
  Alcotest.(check bool) "length mismatch" false
    (Vec.approx_equal [| 1.0 |] [| 1.0; 2.0 |])

(* Properties *)

let vec_gen = QCheck.(array_of_size Gen.(1 -- 40) (float_range (-100.) 100.))

let prop_dot_commutative =
  QCheck.Test.make ~name:"dot commutative" ~count:200
    QCheck.(pair vec_gen vec_gen)
    (fun (x, y) ->
      let n = Stdlib.min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      Float.abs (Vec.dot x y -. Vec.dot y x) <= 1e-9)

let prop_nrm2_nonneg =
  QCheck.Test.make ~name:"nrm2 non-negative" ~count:200 vec_gen (fun x ->
      Vec.nrm2 x >= 0.0)

let prop_axpy_linear =
  QCheck.Test.make ~name:"axpy(a,x,0) = a*x" ~count:200
    QCheck.(pair (float_range (-10.) 10.) vec_gen)
    (fun (a, x) ->
      let y = Vec.create (Array.length x) in
      Vec.axpy a x y;
      Vec.approx_equal ~tol:1e-9 y (Vec.scale a x))

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    QCheck.(pair vec_gen vec_gen)
    (fun (x, y) ->
      let n = Stdlib.min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      Vec.nrm2 (Vec.add x y) <= Vec.nrm2 x +. Vec.nrm2 y +. 1e-6)

(* Element-wise results against the per-element formula, bit for bit,
   on vectors that mix ordinary values with NaN, signed zeros,
   infinities and extremes, and on empty vectors. *)
let special_float =
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-100.) 100.);
        ( 1,
          oneofl
            [ Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity;
              Float.min_float; Float.max_float ] );
      ])

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* A scalar and two vectors of one length in [0, 40]. *)
let scalar_and_pair =
  QCheck.make
    ~print:QCheck.Print.(triple float (array float) (array float))
    QCheck.Gen.(
      let* n = 0 -- 40 in
      triple special_float (array_size (return n) special_float)
        (array_size (return n) special_float))

let prop_elementwise_bits =
  QCheck.Test.make ~name:"element-wise ops = per-element formula, bit for bit"
    ~count:300 scalar_and_pair (fun (a, x, y) ->
      let each f = Array.init (Array.length x) (fun i -> f x.(i) y.(i)) in
      same_bits (Vec.add x y) (each ( +. ))
      && same_bits (Vec.sub x y) (each ( -. ))
      && same_bits (Vec.mul_elementwise x y) (each ( *. ))
      && same_bits (Vec.scale a x) (Array.map (fun xi -> a *. xi) x))

let suite =
  [
    Alcotest.test_case "create is zeroed" `Quick test_create_zeroed;
    Alcotest.test_case "scal" `Quick test_scal;
    Alcotest.test_case "scal by zero" `Quick test_scal_zero;
    Alcotest.test_case "axpy" `Quick test_axpy;
    Alcotest.test_case "axpy mismatch raises" `Quick test_axpy_mismatch;
    Alcotest.test_case "dot" `Quick test_dot;
    Alcotest.test_case "dot of empty" `Quick test_dot_empty;
    Alcotest.test_case "nrm2" `Quick test_nrm2;
    Alcotest.test_case "sum" `Quick test_sum;
    Alcotest.test_case "mul_elementwise" `Quick test_mul_elementwise;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
    Alcotest.test_case "approx_equal" `Quick test_approx_equal;
    QCheck_alcotest.to_alcotest prop_dot_commutative;
    QCheck_alcotest.to_alcotest prop_nrm2_nonneg;
    QCheck_alcotest.to_alcotest prop_axpy_linear;
    QCheck_alcotest.to_alcotest prop_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_elementwise_bits;
  ]
