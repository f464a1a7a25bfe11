(* CSR / CSC / COO formats: construction invariants, conversions,
   transposition, and generator properties. *)
open Matrix

let rng () = Rng.create 2024

let small_csr () =
  (* [ 1 0 2 ]
     [ 0 0 0 ]
     [ 3 4 0 ] *)
  Csr.create ~rows:3 ~cols:3 ~values:[| 1.0; 2.0; 3.0; 4.0 |]
    ~col_idx:[| 0; 2; 0; 1 |] ~row_off:[| 0; 2; 2; 4 |]

let test_create_valid () =
  let x = small_csr () in
  Alcotest.(check int) "nnz" 4 (Csr.nnz x);
  Alcotest.(check int) "row 0 nnz" 2 (Csr.row_nnz x 0);
  Alcotest.(check int) "row 1 empty" 0 (Csr.row_nnz x 1);
  Alcotest.(check int) "max row nnz" 2 (Csr.max_row_nnz x)

let test_create_bad_offsets () =
  Alcotest.check_raises "non-monotone"
    (Invalid_argument "Csr: row_off must be monotone") (fun () ->
      ignore
        (Csr.create ~rows:2 ~cols:2 ~values:[| 1.0 |] ~col_idx:[| 0 |]
           ~row_off:[| 0; 2; 1 |]))

let test_create_bad_colidx () =
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Csr: column index out of range") (fun () ->
      ignore
        (Csr.create ~rows:1 ~cols:2 ~values:[| 1.0 |] ~col_idx:[| 5 |]
           ~row_off:[| 0; 1 |]))

let test_create_unsorted_cols () =
  Alcotest.check_raises "unsorted columns"
    (Invalid_argument "Csr: column indices must be strictly increasing per row")
    (fun () ->
      ignore
        (Csr.create ~rows:1 ~cols:3 ~values:[| 1.0; 2.0 |] ~col_idx:[| 2; 0 |]
           ~row_off:[| 0; 2 |]))

let test_with_values () =
  let x = small_csr () in
  let y = Csr.with_values x [| 5.0; 6.0; 7.0; 8.0 |] in
  Alcotest.(check bool) "col_idx shared" true (x.col_idx == y.col_idx);
  Alcotest.(check bool) "row_off shared" true (x.row_off == y.row_off);
  Alcotest.(check (array (float 0.0))) "new values" [| 5.0; 6.0; 7.0; 8.0 |]
    y.values;
  Alcotest.(check (array (float 0.0))) "source untouched"
    [| 1.0; 2.0; 3.0; 4.0 |] x.values;
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "%d values" n)
        (Invalid_argument
           "Csr.with_values: values must have one element per entry")
        (fun () -> ignore (Csr.with_values x (Array.make n 0.0))))
    [ 0; 3; 5 ]

let test_dense_roundtrip () =
  let x = small_csr () in
  let back = Csr.of_dense (Csr.to_dense x) in
  Alcotest.(check bool) "roundtrip" true (Csr.approx_equal x back)

let test_transpose_explicit () =
  let x = small_csr () in
  let xt = Csr.transpose x in
  let expected = Dense.transpose (Csr.to_dense x) in
  Alcotest.(check bool) "transpose" true
    (Dense.approx_equal (Csr.to_dense xt) expected)

let test_transpose_involution () =
  let x = small_csr () in
  Alcotest.(check bool) "transpose twice" true
    (Csr.approx_equal x (Csr.transpose (Csr.transpose x)))

let test_coo_duplicates_summed () =
  let coo = Coo.create ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 0, 2.5); (1, 1, 1.0) ] in
  let d = Coo.to_dense coo in
  Alcotest.(check (float 1e-12)) "summed" 3.5 (Dense.get d 0 0)

let test_coo_drops_zeros () =
  let coo = Coo.create ~rows:1 ~cols:2 [ (0, 0, 0.0); (0, 1, 1.0) ] in
  Alcotest.(check int) "zeros dropped" 1 (Coo.nnz coo)

let test_coo_out_of_range () =
  Alcotest.check_raises "entry out of range"
    (Invalid_argument "Coo.create: entry (2,0) out of range 2x2") (fun () ->
      ignore (Coo.create ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

let test_csc_matches_transpose () =
  let x = small_csr () in
  let csc = Csc.of_csr x in
  (* column 0 of X holds rows 0 and 2 *)
  let seen = ref [] in
  Csc.iter_col csc 0 (fun r v -> seen := (r, v) :: !seen);
  Alcotest.(check (list (pair int (float 1e-12))))
    "column 0" [ (0, 1.0); (2, 3.0) ] (List.rev !seen)

let test_csc_roundtrip () =
  let x = small_csr () in
  Alcotest.(check bool) "csc roundtrip" true
    (Csr.approx_equal x (Csc.to_csr (Csc.of_csr x)))

let test_mean_row_nnz () =
  let x = small_csr () in
  Alcotest.(check (float 1e-12)) "mu" (4.0 /. 3.0) (Csr.mean_row_nnz x)

let test_density () =
  Alcotest.(check (float 1e-12)) "density" (4.0 /. 9.0)
    (Csr.density (small_csr ()))

let test_bytes_footprint () =
  let x = small_csr () in
  Alcotest.(check int) "8B values + 4B cols + 4B offsets"
    ((8 * 4) + (4 * 4) + (4 * 4))
    (Csr.bytes x)

(* Generators *)

let test_gen_uniform_shape () =
  let x = Gen.sparse_uniform (rng ()) ~rows:100 ~cols:50 ~density:0.1 in
  Alcotest.(check int) "rows" 100 x.Csr.rows;
  Alcotest.(check int) "5 nnz per row" 500 (Csr.nnz x)

let test_gen_uniform_min_one () =
  let x = Gen.sparse_uniform (rng ()) ~rows:10 ~cols:1000 ~density:0.0001 in
  Alcotest.(check int) "at least one nnz per row" 10 (Csr.nnz x)

let test_gen_banded () =
  let x = Gen.sparse_banded (rng ()) ~rows:20 ~cols:20 ~bandwidth:1 in
  Alcotest.(check bool) "max 3 per row" true (Csr.max_row_nnz x <= 3)

let test_gen_deterministic () =
  let a = Gen.sparse_uniform (Rng.create 5) ~rows:50 ~cols:30 ~density:0.1 in
  let b = Gen.sparse_uniform (Rng.create 5) ~rows:50 ~cols:30 ~density:0.1 in
  Alcotest.(check bool) "same seed, same matrix" true (Csr.approx_equal a b)

let sparse_gen =
  QCheck.Gen.(
    let* rows = 1 -- 30 in
    let* cols = 1 -- 30 in
    let* density = float_range 0.05 0.5 in
    let* seed = 0 -- 10000 in
    return (Gen.sparse_bernoulli (Rng.create seed) ~rows ~cols ~density))

let arbitrary_sparse = QCheck.make ~print:(Format.asprintf "%a" Csr.pp) sparse_gen

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involution (random)" ~count:100
    arbitrary_sparse (fun x ->
      Csr.approx_equal x (Csr.transpose (Csr.transpose x)))

let prop_transpose_preserves_nnz =
  QCheck.Test.make ~name:"transpose preserves nnz" ~count:100 arbitrary_sparse
    (fun x -> Csr.nnz (Csr.transpose x) = Csr.nnz x)

let prop_dense_roundtrip =
  QCheck.Test.make ~name:"csr <-> dense roundtrip (random)" ~count:100
    arbitrary_sparse (fun x ->
      Csr.approx_equal x (Csr.of_dense (Csr.to_dense x)))

let prop_csc_roundtrip =
  QCheck.Test.make ~name:"csr <-> csc roundtrip (random)" ~count:100
    arbitrary_sparse (fun x -> Csr.approx_equal x (Csc.to_csr (Csc.of_csr x)))

let prop_mixture_within_bounds =
  QCheck.Test.make ~name:"mixture generator bounds" ~count:50
    QCheck.(pair (int_range 1 50) (int_range 10 200))
    (fun (rows, cols) ->
      let x =
        Gen.sparse_mixture (Rng.create 7) ~rows ~cols ~nnz_per_row:5
          ~hot_fraction:0.5 ~hot_cols:(cols / 2) ()
      in
      x.Csr.rows = rows && x.Csr.cols = cols
      && Csr.max_row_nnz x <= 5)

(* In-place generators against the tuple-building oracle (Gen_oracle):
   the same CSR bit for bit, the same Rng state afterwards (the next
   [Rng.bits] agrees), and the same exception where the oracle raises.
   Shapes cover rows = 0, cols 0 and 1, density 0 and 1, nnz_per_row
   and hot_cols beyond cols, bandwidth 0 and beyond cols, and rows long
   enough for the heapsort path.  Negative dimensions are outside the
   contract and not drawn. *)

let outcome make seed =
  let rng = Rng.create seed in
  match make rng with
  | x -> Ok (x, Rng.bits rng)
  | exception e -> Error e

let same_outcome name seed oracle change =
  match (outcome oracle seed, outcome change seed) with
  | Ok ((a : Csr.t), next_a), Ok ((b : Csr.t), next_b) ->
      let bits v = Array.map Int64.bits_of_float v in
      if (a.rows, a.cols) <> (b.rows, b.cols) then
        QCheck.Test.fail_reportf "%s: shape differs" name
      else if a.row_off <> b.row_off then
        QCheck.Test.fail_reportf "%s: row_off differs" name
      else if a.col_idx <> b.col_idx then
        QCheck.Test.fail_reportf "%s: col_idx differs" name
      else if bits a.values <> bits b.values then
        QCheck.Test.fail_reportf "%s: values differ" name
      else if next_a <> next_b then
        QCheck.Test.fail_reportf "%s: Rng state after the call differs" name
      else true
  | Error ea, Error eb ->
      ea = eb
      || QCheck.Test.fail_reportf "%s: oracle raised %s, change raised %s" name
           (Printexc.to_string ea) (Printexc.to_string eb)
  | Ok _, Error e ->
      QCheck.Test.fail_reportf "%s: change raised %s" name
        (Printexc.to_string e)
  | Error e, Ok _ ->
      QCheck.Test.fail_reportf "%s: oracle raised %s, change returned" name
        (Printexc.to_string e)

let gen_seed = QCheck.Gen.(0 -- 1_000_000)

let gen_rows = QCheck.Gen.(frequency [ (1, return 0); (6, 1 -- 40) ])

let gen_cols =
  QCheck.Gen.(frequency [ (1, return 0); (2, return 1); (6, 2 -- 200) ])

(* In [0, 1] with both ends, plus out-of-range values that must raise. *)
let gen_fraction =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.0);
        (1, return 1.0);
        (5, float_bound_inclusive 1.0);
        (1, oneofl [ -0.25; 1.5 ]);
      ])

(* [rejects] picks the argument sets the in-place generators refuse up
   front with an [Invalid_argument] that names the generator.  The oracle
   fails later on most of them (Csr's message, or an Assert_failure from
   [Rng.int 0]) and, for an exponent that is not positive, may return a
   matrix whose entries all sit in column 0; only the refusal is checked
   there. *)
let differential ?(rejects = fun _ -> false) name gen ~print oracle change =
  QCheck.Test.make ~name:("in-place = tuple oracle: " ^ name) ~count:300
    (QCheck.make ~print QCheck.Gen.(pair gen_seed gen))
    (fun (seed, args) ->
      if rejects args then
        match change (Rng.create seed) args with
        | exception Invalid_argument m
          when String.starts_with ~prefix:("Gen." ^ name ^ ": ") m ->
            true
        | exception e ->
            QCheck.Test.fail_reportf "%s: raised %s" name (Printexc.to_string e)
        | _ -> QCheck.Test.fail_reportf "%s: accepted a rejected argument" name
      else
        same_outcome name seed (fun rng -> oracle rng args)
          (fun rng -> change rng args))

let prop_gen_uniform_differential =
  differential "sparse_uniform"
    QCheck.Gen.(triple gen_rows gen_cols gen_fraction)
    ~print:QCheck.Print.(pair int (triple int int float))
    (fun rng (rows, cols, density) ->
      Gen_oracle.sparse_uniform rng ~rows ~cols ~density)
    (fun rng (rows, cols, density) -> Gen.sparse_uniform rng ~rows ~cols ~density)

let prop_gen_bernoulli_differential =
  differential "sparse_bernoulli"
    QCheck.Gen.(triple gen_rows gen_cols gen_fraction)
    ~print:QCheck.Print.(pair int (triple int int float))
    (fun rng (rows, cols, density) ->
      Gen_oracle.sparse_bernoulli rng ~rows ~cols ~density)
    (fun rng (rows, cols, density) ->
      Gen.sparse_bernoulli rng ~rows ~cols ~density)

let draws_without_cols ~rows ~cols ~nnz_per_row =
  cols < 1 && rows > 0 && nnz_per_row > 0

let prop_gen_powerlaw_differential =
  differential "sparse_powerlaw"
    ~rejects:(fun (rows, cols, nnz_per_row, exponent) ->
      draws_without_cols ~rows ~cols ~nnz_per_row
      || not (Option.value exponent ~default:1.1 > 0.0))
    QCheck.Gen.(
      quad gen_rows gen_cols (-1 -- 80)
        (frequency
           [
             (3, return None);
             (3, map Option.some (float_range 0.3 3.0));
             (1, oneofl [ Some (-1.0); Some 0.0; Some Float.nan ]);
           ]))
    ~print:
      QCheck.Print.(pair int (quad int int int (option float)))
    (fun rng (rows, cols, nnz_per_row, exponent) ->
      Gen_oracle.sparse_powerlaw rng ~rows ~cols ~nnz_per_row ?exponent ())
    (fun rng (rows, cols, nnz_per_row, exponent) ->
      Gen.sparse_powerlaw rng ~rows ~cols ~nnz_per_row ?exponent ())

let prop_gen_mixture_differential =
  differential "sparse_mixture"
    ~rejects:(fun (rows, cols, nnz_per_row, hot_fraction, _) ->
      draws_without_cols ~rows ~cols ~nnz_per_row
      && hot_fraction >= 0.0 && hot_fraction <= 1.0)
    QCheck.Gen.(
      let* rows = gen_rows and* cols = gen_cols in
      let* nnz_per_row = -1 -- 80 and* hot_fraction = gen_fraction in
      let* hot_cols = -1 -- (cols + 10) in
      return (rows, cols, nnz_per_row, hot_fraction, hot_cols))
    ~print:(fun (seed, (rows, cols, nnz_per_row, hot_fraction, hot_cols)) ->
      Printf.sprintf
        "seed %d rows %d cols %d nnz_per_row %d hot_fraction %g hot_cols %d"
        seed rows cols nnz_per_row hot_fraction hot_cols)
    (fun rng (rows, cols, nnz_per_row, hot_fraction, hot_cols) ->
      Gen_oracle.sparse_mixture rng ~rows ~cols ~nnz_per_row ~hot_fraction
        ~hot_cols ())
    (fun rng (rows, cols, nnz_per_row, hot_fraction, hot_cols) ->
      Gen.sparse_mixture rng ~rows ~cols ~nnz_per_row ~hot_fraction ~hot_cols
        ())

let prop_gen_banded_differential =
  differential "sparse_banded"
    QCheck.Gen.(
      let* rows = gen_rows and* cols = gen_cols in
      let* bandwidth =
        frequency [ (1, return (-1)); (1, return 0); (6, 0 -- (cols + 10)) ]
      in
      return (rows, cols, bandwidth))
    ~print:QCheck.Print.(pair int (triple int int int))
    (fun rng (rows, cols, bandwidth) ->
      Gen_oracle.sparse_banded rng ~rows ~cols ~bandwidth)
    (fun rng (rows, cols, bandwidth) ->
      Gen.sparse_banded rng ~rows ~cols ~bandwidth)

(* Bytes the major heap takes for [make ()]: direct allocations plus
   promotions out of the minor heap. *)
let major_bytes_allocated make =
  let before = (Gc.quick_stat ()).major_words in
  let x = make () in
  let after = (Gc.quick_stat ()).major_words in
  (x, (after -. before) *. float_of_int (Sys.word_size / 8))

let csr_array_bytes (x : Csr.t) =
  float_of_int (8 * ((2 * Csr.nnz x) + x.rows + 1))

(* Building in place allocates the final arrays (sparse_mixture: arrays
   sized for rows x nnz_per_row, trimmed once) and a cols-byte scratch;
   building boxed (column, value) tuples per row took 3.9-4.0x the CSR.
   The bound is 2.5x the CSR plus the scratch plus 64 KiB for what the
   minor heap promotes meanwhile. *)
let test_gen_major_heap_bound () =
  let check name ~cols make =
    let x, bytes = major_bytes_allocated make in
    let csr = csr_array_bytes x in
    let bound = (2.5 *. csr) +. float_of_int cols +. 65_536.0 in
    if bytes > bound then
      Alcotest.failf "%s: %.0f major-heap bytes for %.0f bytes of CSR (%.2fx)"
        name bytes csr (bytes /. csr)
  in
  check "sparse_uniform" ~cols:1024 (fun () ->
      Gen.sparse_uniform (Rng.create 11) ~rows:20_000 ~cols:1024 ~density:0.01);
  check "sparse_mixture" ~cols:50_000 (fun () ->
      Gen.sparse_mixture (Rng.create 12) ~rows:10_000 ~cols:50_000
        ~nnz_per_row:28 ~hot_fraction:0.3 ~hot_cols:5_000 ())

let test_gen_rejects_named () =
  let rng = Rng.create 1 in
  let exponent_msg = "Gen.sparse_powerlaw: exponent must be > 0" in
  List.iter
    (fun exponent ->
      Alcotest.check_raises "powerlaw exponent" (Invalid_argument exponent_msg)
        (fun () ->
          ignore
            (Gen.sparse_powerlaw rng ~rows:4 ~cols:100 ~nnz_per_row:3 ~exponent
               ())))
    [ 0.0; -1.0; Float.nan ];
  Alcotest.check_raises "powerlaw cols"
    (Invalid_argument "Gen.sparse_powerlaw: cols must be > 0 to draw entries")
    (fun () ->
      ignore (Gen.sparse_powerlaw rng ~rows:4 ~cols:0 ~nnz_per_row:3 ()));
  Alcotest.check_raises "mixture cols"
    (Invalid_argument "Gen.sparse_mixture: cols must be > 0 to draw entries")
    (fun () ->
      ignore
        (Gen.sparse_mixture rng ~rows:4 ~cols:0 ~nnz_per_row:3
           ~hot_fraction:0.5 ~hot_cols:2 ()));
  (* a refusal draws nothing *)
  Alcotest.(check int) "no draw" (Rng.bits (Rng.create 1)) (Rng.bits rng)

let suite =
  [
    Alcotest.test_case "create validates" `Quick test_create_valid;
    Alcotest.test_case "bad offsets rejected" `Quick test_create_bad_offsets;
    Alcotest.test_case "bad col idx rejected" `Quick test_create_bad_colidx;
    Alcotest.test_case "unsorted cols rejected" `Quick test_create_unsorted_cols;
    Alcotest.test_case "with_values shares the structure" `Quick
      test_with_values;
    Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
    Alcotest.test_case "transpose matches dense" `Quick test_transpose_explicit;
    Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
    Alcotest.test_case "coo duplicates summed" `Quick test_coo_duplicates_summed;
    Alcotest.test_case "coo drops zeros" `Quick test_coo_drops_zeros;
    Alcotest.test_case "coo range check" `Quick test_coo_out_of_range;
    Alcotest.test_case "csc columns" `Quick test_csc_matches_transpose;
    Alcotest.test_case "csc roundtrip" `Quick test_csc_roundtrip;
    Alcotest.test_case "mean row nnz" `Quick test_mean_row_nnz;
    Alcotest.test_case "density" `Quick test_density;
    Alcotest.test_case "bytes footprint" `Quick test_bytes_footprint;
    Alcotest.test_case "uniform generator shape" `Quick test_gen_uniform_shape;
    Alcotest.test_case "uniform generator min 1/row" `Quick
      test_gen_uniform_min_one;
    Alcotest.test_case "banded generator" `Quick test_gen_banded;
    Alcotest.test_case "generator determinism" `Quick test_gen_deterministic;
    QCheck_alcotest.to_alcotest prop_transpose_involution;
    QCheck_alcotest.to_alcotest prop_transpose_preserves_nnz;
    QCheck_alcotest.to_alcotest prop_dense_roundtrip;
    QCheck_alcotest.to_alcotest prop_csc_roundtrip;
    QCheck_alcotest.to_alcotest prop_mixture_within_bounds;
    QCheck_alcotest.to_alcotest prop_gen_uniform_differential;
    QCheck_alcotest.to_alcotest prop_gen_bernoulli_differential;
    QCheck_alcotest.to_alcotest prop_gen_powerlaw_differential;
    QCheck_alcotest.to_alcotest prop_gen_mixture_differential;
    QCheck_alcotest.to_alcotest prop_gen_banded_differential;
    Alcotest.test_case "generators stay within 2.5x CSR on the major heap"
      `Quick test_gen_major_heap_bound;
    Alcotest.test_case "generators name the argument they reject" `Quick
      test_gen_rejects_named;
  ]
