(** Contiguous work partitioning for the domain pool.

    This is the host-side mirror of the tuner's coarsening logic
    (Equation 5): instead of choosing rows-per-vector so concurrent GPU
    vectors finish together, we choose rows-per-domain so domains finish
    together — uniformly for dense data, weighted by the nnz prefix sum
    for CSR data. *)

val uniform : n:int -> parts:int -> int array
(** [uniform ~n ~parts] splits [\[0, n)] into [parts] contiguous ranges
    of near-equal length.  Returns monotone bounds [b] of length
    [parts + 1] with [b.(0) = 0] and [b.(parts) = n]; part [k] owns
    [\[b.(k), b.(k+1))].  Empty parts are allowed when [parts > n]. *)

val by_prefix : ?item_cost:int -> prefix:int array -> parts:int -> unit -> int array
(** [by_prefix ~prefix ~parts ()] splits [\[0, n)] (where
    [n = Array.length prefix - 1]) so each part carries a near-equal
    share of the total weight, where item [i]'s weight is
    [prefix.(i+1) - prefix.(i) + item_cost].  [prefix] must be monotone
    non-decreasing — a CSR [row_off] array is exactly this shape, making
    the split nnz-balanced.  [item_cost] (default 1) models the fixed
    per-row overhead, so runs of empty rows still spread across parts.
    Same bounds convention as {!uniform}. *)
