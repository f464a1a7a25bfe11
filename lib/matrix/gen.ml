let dense rng ~rows ~cols = Dense.init rows cols (fun _ _ -> Rng.gaussian rng)

let vector rng n = Array.init n (fun _ -> Rng.gaussian rng)

(* The CSR arrays under construction.  A row's entries are appended at
   [nnz] in the order they are drawn and put in column order in place
   when the row ends.  [seen] holds one byte per column, set while the
   open row holds that column; each row clears its own bytes, so one
   buffer serves every row.  The arrays start at the generator's
   capacity (exact, or an upper bound) and are trimmed once at the
   end; only the Bernoulli generator can outgrow them. *)
type builder = {
  mutable values : float array;
  mutable col_idx : int array;
  row_off : int array;
  mutable nnz : int;
  seen : Bytes.t;
}

let builder ~rows ~marks ~capacity =
  let capacity = Stdlib.max 0 capacity in
  {
    values = Array.create_float capacity;
    col_idx = Array.make capacity 0;
    row_off = Array.make (rows + 1) 0;
    nnz = 0;
    seen = Bytes.make marks '\000';
  }

let push b c v =
  if b.nnz = Array.length b.col_idx then begin
    let cap = Stdlib.max 16 (2 * b.nnz) in
    let values = Array.create_float cap and col_idx = Array.make cap 0 in
    Array.blit b.values 0 values 0 b.nnz;
    Array.blit b.col_idx 0 col_idx 0 b.nnz;
    b.values <- values;
    b.col_idx <- col_idx
  end;
  b.col_idx.(b.nnz) <- c;
  b.values.(b.nnz) <- v;
  b.nnz <- b.nnz + 1

let seen b c = Bytes.get b.seen c <> '\000'

let mark b c = Bytes.set b.seen c '\001'

let swap b i j =
  let c = b.col_idx.(i) and v = b.values.(i) in
  b.col_idx.(i) <- b.col_idx.(j);
  b.values.(i) <- b.values.(j);
  b.col_idx.(j) <- c;
  b.values.(j) <- v

(* Sift entry [lo + i] down the max-heap on entries [lo, lo + n). *)
let rec sift b lo i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let m =
      if l + 1 < n && b.col_idx.(lo + l + 1) > b.col_idx.(lo + l) then l + 1
      else l
    in
    if b.col_idx.(lo + m) > b.col_idx.(lo + i) then begin
      swap b (lo + i) (lo + m);
      sift b lo m n
    end
  end

(* Ends row [r]: sorts its entries by column, each value moving with its
   column (a row's columns are distinct), and clears its marks.
   Heapsort keeps a row that holds many of the columns at O(k log k);
   insertion sort on short rows takes about a tenth off generating a
   matrix with 10 entries per row. *)
let end_row b r =
  let lo = b.row_off.(r) and n = b.nnz - b.row_off.(r) in
  if n <= 16 then
    for i = lo + 1 to b.nnz - 1 do
      let c = b.col_idx.(i) and v = b.values.(i) in
      let j = ref (i - 1) in
      while !j >= lo && b.col_idx.(!j) > c do
        b.col_idx.(!j + 1) <- b.col_idx.(!j);
        b.values.(!j + 1) <- b.values.(!j);
        decr j
      done;
      b.col_idx.(!j + 1) <- c;
      b.values.(!j + 1) <- v
    done
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift b lo i n
    done;
    for last = n - 1 downto 1 do
      swap b lo (lo + last);
      sift b lo 0 last
    done
  end;
  for i = lo to b.nnz - 1 do
    Bytes.set b.seen b.col_idx.(i) '\000'
  done;
  b.row_off.(r + 1) <- b.nnz

let to_csr b ~rows ~cols =
  let trim a = if Array.length a = b.nnz then a else Array.sub a 0 b.nnz in
  Csr.create ~rows ~cols ~values:(trim b.values) ~col_idx:(trim b.col_idx)
    ~row_off:b.row_off

let sparse_uniform rng ~rows ~cols ~density =
  if density < 0.0 || density > 1.0 then
    invalid_arg "Gen.sparse_uniform: density must be in [0,1]";
  let per_row =
    Stdlib.max 1 (int_of_float (Float.round (density *. float_of_int cols)))
  in
  let k = Stdlib.min per_row cols in
  let b = builder ~rows ~marks:cols ~capacity:(rows * k) in
  for r = 0 to rows - 1 do
    (* Floyd's algorithm: k distinct columns in k draws, even when k is
       close to cols. *)
    for j = cols - k to cols - 1 do
      let t = Rng.int rng (j + 1) in
      let c = if seen b t then j else t in
      mark b c;
      push b c 0.0
    done;
    end_row b r;
    for i = b.row_off.(r) to b.nnz - 1 do
      b.values.(i) <- Rng.gaussian rng
    done
  done;
  to_csr b ~rows ~cols

let sparse_bernoulli rng ~rows ~cols ~density =
  if density < 0.0 || density > 1.0 then
    invalid_arg "Gen.sparse_bernoulli: density must be in [0,1]";
  let expected = density *. float_of_int rows *. float_of_int cols in
  let b = builder ~rows ~marks:0 ~capacity:(int_of_float expected) in
  for r = 0 to rows - 1 do
    let lo = b.nnz in
    for c = cols - 1 downto 0 do
      if Rng.uniform rng < density then push b c (Rng.gaussian rng)
    done;
    (* Drawn from the last column down: reverse into column order. *)
    for i = 0 to ((b.nnz - lo) / 2) - 1 do
      swap b (lo + i) (b.nnz - 1 - i)
    done;
    b.row_off.(r + 1) <- b.nnz
  done;
  to_csr b ~rows ~cols

(* One draw per entry; a column the row already holds is dropped
   without drawing its value. *)
let draw_rows b rng ~rows ~nnz_per_row draw_col =
  for r = 0 to rows - 1 do
    for _ = 1 to nnz_per_row do
      let c = draw_col () in
      if not (seen b c) then begin
        mark b c;
        push b c (Rng.gaussian rng)
      end
    done;
    end_row b r
  done

(* Entries need a column to land in; an empty row set or row draws
   nothing, so any [cols] serves it. *)
let check_cols fn ~rows ~cols ~nnz_per_row =
  if cols < 1 && rows > 0 && nnz_per_row > 0 then
    invalid_arg ("Gen." ^ fn ^ ": cols must be > 0 to draw entries")

let sparse_powerlaw rng ~rows ~cols ~nnz_per_row ?(exponent = 1.1) () =
  if not (exponent > 0.0) then
    invalid_arg "Gen.sparse_powerlaw: exponent must be > 0";
  check_cols "sparse_powerlaw" ~rows ~cols ~nnz_per_row;
  (* Inverse-transform sample from a bounded Zipf by rejection over a
     continuous Pareto; good enough for workload shaping. *)
  let draw_col () =
    let u = Rng.uniform rng in
    let x = (1.0 -. u) ** (-1.0 /. exponent) -. 1.0 in
    let c = int_of_float (x *. float_of_int cols /. 50.0) in
    (* A float past max_int can wrap to a negative column, an entry
       Csr.create rejects. *)
    if c < 0 then invalid_arg "Csr: column index out of range";
    if c >= cols then Rng.int rng cols else c
  in
  let b =
    builder ~rows ~marks:cols ~capacity:(rows * Stdlib.min nnz_per_row cols)
  in
  draw_rows b rng ~rows ~nnz_per_row draw_col;
  to_csr b ~rows ~cols

let sparse_mixture rng ~rows ~cols ~nnz_per_row ~hot_fraction ~hot_cols () =
  if hot_fraction < 0.0 || hot_fraction > 1.0 then
    invalid_arg "Gen.sparse_mixture: hot_fraction must be in [0,1]";
  check_cols "sparse_mixture" ~rows ~cols ~nnz_per_row;
  let hot_cols = Stdlib.max 1 (Stdlib.min hot_cols cols) in
  let draw_col () =
    if Rng.uniform rng < hot_fraction then Rng.int rng hot_cols
    else Rng.int rng cols
  in
  let b =
    builder ~rows ~marks:cols ~capacity:(rows * Stdlib.min nnz_per_row cols)
  in
  draw_rows b rng ~rows ~nnz_per_row draw_col;
  to_csr b ~rows ~cols

let sparse_banded rng ~rows ~cols ~bandwidth =
  if bandwidth < 0 then invalid_arg "Gen.sparse_banded: negative bandwidth";
  let center r =
    if rows <= 1 then 0 else r * (cols - 1) / Stdlib.max 1 (rows - 1)
  in
  let first r = Stdlib.max 0 (center r - bandwidth)
  and last r = Stdlib.min (cols - 1) (center r + bandwidth) in
  let nnz = ref 0 in
  for r = 0 to rows - 1 do
    nnz := !nnz + last r - first r + 1
  done;
  let b = builder ~rows ~marks:0 ~capacity:!nnz in
  for r = 0 to rows - 1 do
    for c = first r to last r do
      push b c (Rng.gaussian rng)
    done;
    b.row_off.(r + 1) <- b.nnz
  done;
  to_csr b ~rows ~cols
