(* Column-tile segment layout for owner-computes CSR scatters.

   The blocked kernel for w += X^T p assigns each domain a set of
   column tiles it owns exclusively, so no two domains ever write the
   same slice of [w] and the per-domain full-width accumulators plus
   tree merge disappear.  The catch: CSR is row-major, so a domain
   owning columns [c_lo, c_hi) must find, in every row, the entries
   that fall inside its tiles.  Re-scanning all of [col_idx] per domain
   would multiply matrix traffic by the domain count; instead we run a one-time
   inspector that exploits the CSR invariant of sorted column indices
   per row: within a row, the entries of one tile form a single
   contiguous run [lo, hi).  The layout flattens those runs into
   per-tile segment arrays, so the executor pass streams exactly its
   own non-zeros, in row order, tile by tile — each tile's slice of
   [w] (tile_width * 8 bytes) stays cache-hot while it is scattered
   into.

   The inspector is O(nnz) (two passes) and depends only on the
   sparsity structure, so it is cached by the identity of the matrix'
   [values] array and amortized across the iterations of an ML solver —
   the classic inspector/executor split. *)

type t = {
  cols : int;
  tile_width : int;
  n_tiles : int;
  tile_nnz : int array;  (* per-tile non-zero count, length n_tiles *)
  seg_off : int array;  (* per-tile segment range, length n_tiles + 1 *)
  seg_row : int array;  (* per-segment owning row *)
  seg_lo : int array;  (* per-segment [lo, hi) range into values/col_idx *)
  seg_hi : int array;
}

let n_tiles t = t.n_tiles

let tile_width t = t.tile_width

let cdiv a b = (a + b - 1) / b

(* Enough tiles that (a) one tile's slice of [w] fits the cache budget
   and (b) parts can be balanced by nnz — a few tiles per part.  One
   part and a cache-sized matrix needs just one tile. *)
let plan_tiles ~cols ~parts ~tile_cols =
  if cols = 0 then 0
  else
    let for_cache = cdiv cols (Stdlib.max 1 tile_cols) in
    let for_balance = if parts <= 1 then 1 else Stdlib.min (4 * parts) cols in
    Stdlib.min cols (Stdlib.max for_cache for_balance)

let build (x : Csr.t) ~tile_width:tw =
  if tw < 1 then invalid_arg "Tiles.build: tile_width < 1";
  let n_tiles = cdiv x.cols tw in
  let tile_nnz = Array.make n_tiles 0 in
  let seg_count = Array.make n_tiles 0 in
  let col_idx = x.col_idx and row_off = x.row_off in
  (* pass 1: count segments and nnz per tile; sorted col_idx means each
     (row, tile) pair is one contiguous run. *)
  for r = 0 to x.rows - 1 do
    let e = row_off.(r + 1) in
    let cur = ref (-1) in
    for i = row_off.(r) to e - 1 do
      let t = Array.unsafe_get col_idx i / tw in
      tile_nnz.(t) <- tile_nnz.(t) + 1;
      if t <> !cur then begin
        seg_count.(t) <- seg_count.(t) + 1;
        cur := t
      end
    done
  done;
  let seg_off = Array.make (n_tiles + 1) 0 in
  for t = 0 to n_tiles - 1 do
    seg_off.(t + 1) <- seg_off.(t) + seg_count.(t)
  done;
  let segs = seg_off.(n_tiles) in
  let seg_row = Array.make segs 0 in
  let seg_lo = Array.make segs 0 in
  let seg_hi = Array.make segs 0 in
  let cursor = Array.copy seg_off in
  (* pass 2: record each run's row and [lo, hi). *)
  for r = 0 to x.rows - 1 do
    let e = row_off.(r + 1) in
    let i = ref row_off.(r) in
    while !i < e do
      let lo = !i in
      let t = Array.unsafe_get col_idx lo / tw in
      let limit = (t + 1) * tw in
      incr i;
      while !i < e && Array.unsafe_get col_idx !i < limit do
        incr i
      done;
      let s = cursor.(t) in
      cursor.(t) <- s + 1;
      seg_row.(s) <- r;
      seg_lo.(s) <- lo;
      seg_hi.(s) <- !i
    done
  done;
  Kf_obs.Host_stats.record_layout_build ();
  { cols = x.cols; tile_width = tw; n_tiles; tile_nnz; seg_off; seg_row;
    seg_lo; seg_hi }

(* Identity-keyed layout cache (inspector/executor amortization): the
   same matrix re-submitted across solver iterations hits here.  Keyed
   by physical identity of [values] plus the effective tile width;
   bounded LRU under a mutex so concurrent serving replicas stay safe. *)
let cache : (float array * int * t) list ref = ref []

let cache_mutex = Mutex.create ()

let cache_capacity = 8

let layout ?tile_cols ?(parts = 1) (x : Csr.t) =
  let tile_cols =
    match tile_cols with
    | Some tc when tc >= 1 -> tc
    | Some _ -> invalid_arg "Tiles.layout: tile_cols < 1"
    | None -> Par.Tune.tile_cols ()
  in
  let n = plan_tiles ~cols:x.cols ~parts ~tile_cols in
  let tw = if n = 0 then 1 else cdiv x.cols n in
  Mutex.lock cache_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_mutex)
    (fun () ->
      let hit =
        List.find_opt
          (fun (values, width, _) -> values == x.values && width = tw)
          !cache
      in
      match hit with
      | Some ((_, _, t) as entry) ->
          cache := entry :: List.filter (fun e -> not (e == entry)) !cache;
          t
      | None ->
          let t = build x ~tile_width:tw in
          let rec take k = function
            | [] -> []
            | _ when k = 0 -> []
            | e :: rest -> e :: take (k - 1) rest
          in
          cache := take cache_capacity ((x.values, tw, t) :: !cache);
          t)

(* Scatter executor: out.(c) = alpha * (X^T p).(c) [+ beta * z.(c)]
   over this layout, each worker walking only the segments of its owned
   tiles.  The accumulator [w] lives in a Bigarray — unsafe_get/set
   compile to raw loads/stores with no write barrier — and the inner
   loop is manually unrolled 4-wide, the host mirror of the paper's TL
   register-unrolling trick (Section 3.3): four independent
   multiply-adds per iteration to hide load latency. *)

let scatter ?pool ?(credit = false) t (x : Csr.t) ~p ~alpha ?beta_z ~out () =
  if t.cols <> x.cols then invalid_arg "Tiles.scatter: layout/matrix mismatch";
  if Array.length out <> x.cols then
    invalid_arg "Tiles.scatter: output dimension mismatch";
  if x.cols > 0 then begin
    let pool = match pool with Some p -> p | None -> Par.Pool.default () in
    let workers = Par.Pool.size pool in
    let tb = Par.Partition.by_weights ~weights:t.tile_nnz ~parts:workers () in
    let w =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout x.cols
    in
    let profiling = Kf_obs.Host_stats.profiling () in
    if profiling then begin
      Kf_obs.Host_stats.record_alloc ~bytes:(8 * x.cols);
      Kf_obs.Host_stats.record_tiles ~count:t.n_tiles;
      (* what the per-domain dense accumulators would have cost: one
         full-width array per extra domain, and a tree merge reading
         dst+src and writing dst for each pairwise combine. *)
      Kf_obs.Host_stats.record_merge_bytes_saved
        ~bytes:((workers - 1) * x.cols * 8 * 3)
    end;
    let values = x.values and col_idx = x.col_idx in
    let seg_off = t.seg_off and seg_row = t.seg_row in
    let seg_lo = t.seg_lo and seg_hi = t.seg_hi in
    let tw = t.tile_width in
    let rows_credit =
      if credit then Par.Partition.uniform ~n:x.rows ~parts:workers
      else [||]
    in
    Par.Pool.run_workers pool (fun wid ->
        let t_lo = tb.(wid) and t_hi = tb.(wid + 1) in
        let c_lo = Stdlib.min x.cols (t_lo * tw) in
        let c_hi = Stdlib.min x.cols (t_hi * tw) in
        for c = c_lo to c_hi - 1 do
          Bigarray.Array1.unsafe_set w c 0.0
        done;
        if credit && profiling then begin
          let nnz = ref 0 in
          for tile = t_lo to t_hi - 1 do
            nnz := !nnz + t.tile_nnz.(tile)
          done;
          Kf_obs.Host_stats.add_work
            ~rows:(rows_credit.(wid + 1) - rows_credit.(wid))
            ~nnz:!nnz
        end;
        for tile = t_lo to t_hi - 1 do
          for s = seg_off.(tile) to seg_off.(tile + 1) - 1 do
            let pr = Array.unsafe_get p (Array.unsafe_get seg_row s) in
            if pr <> 0.0 then begin
              let hi = Array.unsafe_get seg_hi s in
              let i = ref (Array.unsafe_get seg_lo s) in
              while !i + 4 <= hi do
                let i0 = !i in
                let c0 = Array.unsafe_get col_idx i0
                and v0 = Array.unsafe_get values i0 in
                let c1 = Array.unsafe_get col_idx (i0 + 1)
                and v1 = Array.unsafe_get values (i0 + 1) in
                let c2 = Array.unsafe_get col_idx (i0 + 2)
                and v2 = Array.unsafe_get values (i0 + 2) in
                let c3 = Array.unsafe_get col_idx (i0 + 3)
                and v3 = Array.unsafe_get values (i0 + 3) in
                Bigarray.Array1.unsafe_set w c0
                  (Bigarray.Array1.unsafe_get w c0 +. (v0 *. pr));
                Bigarray.Array1.unsafe_set w c1
                  (Bigarray.Array1.unsafe_get w c1 +. (v1 *. pr));
                Bigarray.Array1.unsafe_set w c2
                  (Bigarray.Array1.unsafe_get w c2 +. (v2 *. pr));
                Bigarray.Array1.unsafe_set w c3
                  (Bigarray.Array1.unsafe_get w c3 +. (v3 *. pr));
                i := i0 + 4
              done;
              while !i < hi do
                let c = Array.unsafe_get col_idx !i in
                Bigarray.Array1.unsafe_set w c
                  (Bigarray.Array1.unsafe_get w c
                  +. (Array.unsafe_get values !i *. pr));
                incr i
              done
            end
          done
        done;
        (* fused epilogue: the owner converts its slice straight into
           the caller's result, folding alpha and beta*z into the one
           write pass that was needed anyway. *)
        (match beta_z with
        | None ->
            for c = c_lo to c_hi - 1 do
              Array.unsafe_set out c
                (alpha *. Bigarray.Array1.unsafe_get w c)
            done
        | Some (beta, z) ->
            for c = c_lo to c_hi - 1 do
              Array.unsafe_set out c
                ((alpha *. Bigarray.Array1.unsafe_get w c)
                +. (beta *. Array.unsafe_get z c))
            done))
  end
