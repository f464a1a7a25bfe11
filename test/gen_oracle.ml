(* Test oracle: the sparse generators as they were before they built
   CSR in place, kept verbatim.  Each row is collected as boxed
   (column, value) tuples and copied into CSR at the end.  The
   differential tests in test_sparse.ml require the in-place
   generators to match these bit for bit, including the state of the
   Rng afterwards and the exception raised on bad arguments. *)
open Matrix

(* Draw [k] distinct integers in [0, bound) — Floyd's algorithm keeps this
   O(k) even when k is close to bound. *)
let distinct_ints rng ~k ~bound =
  let k = Stdlib.min k bound in
  let seen = Hashtbl.create (2 * k) in
  for j = bound - k to bound - 1 do
    let t = Rng.int rng (j + 1) in
    if Hashtbl.mem seen t then Hashtbl.replace seen j ()
    else Hashtbl.replace seen t ()
  done;
  let out = Hashtbl.fold (fun c () acc -> c :: acc) seen [] in
  List.sort compare out

let rows_to_csr ~rows ~cols row_entries =
  let nnz = Array.fold_left (fun acc r -> acc + Array.length r) 0 row_entries in
  let values = Array.make nnz 0.0 in
  let col_idx = Array.make nnz 0 in
  let row_off = Array.make (rows + 1) 0 in
  let pos = ref 0 in
  for r = 0 to rows - 1 do
    row_off.(r) <- !pos;
    Array.iter
      (fun (c, v) ->
        col_idx.(!pos) <- c;
        values.(!pos) <- v;
        incr pos)
      row_entries.(r)
  done;
  row_off.(rows) <- !pos;
  Csr.create ~rows ~cols ~values ~col_idx ~row_off

let sparse_uniform rng ~rows ~cols ~density =
  if density < 0.0 || density > 1.0 then
    invalid_arg "Gen.sparse_uniform: density must be in [0,1]";
  let per_row =
    Stdlib.max 1 (int_of_float (Float.round (density *. float_of_int cols)))
  in
  let row_entries =
    Array.init rows (fun _ ->
        let columns = distinct_ints rng ~k:per_row ~bound:cols in
        Array.of_list (List.map (fun c -> (c, Rng.gaussian rng)) columns))
  in
  rows_to_csr ~rows ~cols row_entries

let sparse_bernoulli rng ~rows ~cols ~density =
  if density < 0.0 || density > 1.0 then
    invalid_arg "Gen.sparse_bernoulli: density must be in [0,1]";
  let row_entries =
    Array.init rows (fun _ ->
        let entries = ref [] in
        for c = cols - 1 downto 0 do
          if Rng.uniform rng < density then
            entries := (c, Rng.gaussian rng) :: !entries
        done;
        Array.of_list !entries)
  in
  rows_to_csr ~rows ~cols row_entries

let sparse_powerlaw rng ~rows ~cols ~nnz_per_row ?(exponent = 1.1) () =
  (* Inverse-transform sample from a bounded Zipf by rejection over a
     continuous Pareto; good enough for workload shaping. *)
  let draw_col () =
    let u = Rng.uniform rng in
    let x = (1.0 -. u) ** (-1.0 /. exponent) -. 1.0 in
    let c = int_of_float (x *. float_of_int cols /. 50.0) in
    if c >= cols then Rng.int rng cols else c
  in
  let row_entries =
    Array.init rows (fun _ ->
        let tbl = Hashtbl.create (2 * nnz_per_row) in
        for _ = 1 to nnz_per_row do
          let c = draw_col () in
          if not (Hashtbl.mem tbl c) then
            Hashtbl.replace tbl c (Rng.gaussian rng)
        done;
        let cells = Hashtbl.fold (fun c v acc -> (c, v) :: acc) tbl [] in
        Array.of_list (List.sort compare cells))
  in
  rows_to_csr ~rows ~cols row_entries

let sparse_mixture rng ~rows ~cols ~nnz_per_row ~hot_fraction ~hot_cols () =
  if hot_fraction < 0.0 || hot_fraction > 1.0 then
    invalid_arg "Gen.sparse_mixture: hot_fraction must be in [0,1]";
  let hot_cols = Stdlib.max 1 (Stdlib.min hot_cols cols) in
  let draw_col () =
    if Rng.uniform rng < hot_fraction then Rng.int rng hot_cols
    else Rng.int rng cols
  in
  let row_entries =
    Array.init rows (fun _ ->
        let tbl = Hashtbl.create (2 * nnz_per_row) in
        for _ = 1 to nnz_per_row do
          let c = draw_col () in
          if not (Hashtbl.mem tbl c) then
            Hashtbl.replace tbl c (Rng.gaussian rng)
        done;
        let cells = Hashtbl.fold (fun c v acc -> (c, v) :: acc) tbl [] in
        Array.of_list (List.sort compare cells))
  in
  rows_to_csr ~rows ~cols row_entries

let sparse_banded rng ~rows ~cols ~bandwidth =
  if bandwidth < 0 then invalid_arg "Gen.sparse_banded: negative bandwidth";
  let row_entries =
    Array.init rows (fun r ->
        let center =
          if rows <= 1 then 0 else r * (cols - 1) / (Stdlib.max 1 (rows - 1))
        in
        let lo = Stdlib.max 0 (center - bandwidth) in
        let hi = Stdlib.min (cols - 1) (center + bandwidth) in
        Array.init (hi - lo + 1) (fun i -> (lo + i, Rng.gaussian rng)))
  in
  rows_to_csr ~rows ~cols row_entries
