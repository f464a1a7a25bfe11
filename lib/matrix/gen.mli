(** Seeded random matrix and vector generators for the experiments.

    The paper's synthetic sweeps use uniformly sparse matrices
    ("randomly generated ... sparsity 0.01"); the KDD2010 surrogate needs an
    ultra-sparse matrix with a heavy-tailed column distribution so that
    atomic-contention behaviour matches a real bag-of-features data set.

    {b Rng order.}  Each generator's sequence of {!Rng} calls, given
    below, is part of its contract: every data set, every draw that
    follows it (targets, labels) and every weights checksum depends on
    it.  Rows are drawn in order, first to last.

    {b Memory.}  The sparse generators draw each row straight into the
    final CSR arrays, with one scratch byte per column to drop
    duplicates; a row is put in column order in place.  [sparse_uniform]
    and [sparse_banded] allocate exactly the CSR; [sparse_mixture] and
    [sparse_powerlaw] size their arrays for [rows * min nnz_per_row
    cols] entries and trim them once, so they allocate at most that
    bound plus the final CSR; [sparse_bernoulli] grows its arrays by
    doubling. *)

val dense : Rng.t -> rows:int -> cols:int -> Dense.t
(** Standard normal entries. *)

val vector : Rng.t -> int -> Vec.t
(** Standard normal entries. *)

val sparse_uniform : Rng.t -> rows:int -> cols:int -> density:float -> Csr.t
(** Each row receives [k = min cols (max 1 (round (density * cols)))]
    distinct uniformly chosen columns, with standard normal values.  This
    matches the paper's fixed-sparsity synthetic generator and keeps rows
    balanced.  Rng order per row: Floyd's algorithm, [Rng.int (j + 1)]
    for [j = cols - k .. cols - 1] (a repeat of an earlier draw takes
    column [j]), then one [Rng.gaussian] per entry in column order. *)

val sparse_bernoulli : Rng.t -> rows:int -> cols:int -> density:float -> Csr.t
(** Each cell is non-zero independently with probability [density]; rows
    therefore have binomially distributed lengths (used by property tests
    to exercise irregular rows).  Rng order per row: for each column from
    [cols - 1] down to 0, [Rng.uniform], then [Rng.gaussian] if the cell
    is kept. *)

val sparse_powerlaw :
  Rng.t ->
  rows:int ->
  cols:int ->
  nnz_per_row:int ->
  ?exponent:float ->
  unit ->
  Csr.t
(** Ultra-sparse generator: column of each entry drawn from a Zipf-like
    distribution with the given [exponent] (default 1.1), mimicking
    bag-of-features data such as KDD2010 where a few columns are very hot.
    Duplicate columns within a row are collapsed, so rows may end up with
    slightly fewer than [nnz_per_row] entries.  Rng order per row, for
    each of the [nnz_per_row] draws: [Rng.uniform], [Rng.int cols] if the
    Pareto column falls past the last one, then [Rng.gaussian] if the
    column is new in the row.  Raises [Invalid_argument] naming the
    argument, before any draw, when [exponent] is not positive (or NaN),
    or when [cols < 1] while [rows] and [nnz_per_row] are positive. *)

val sparse_mixture :
  Rng.t ->
  rows:int ->
  cols:int ->
  nnz_per_row:int ->
  hot_fraction:float ->
  hot_cols:int ->
  unit ->
  Csr.t
(** Bag-of-features profile: each entry falls into a small hot column set
    with probability [hot_fraction] and is uniform over all columns
    otherwise.  This matches ultra-sparse data sets like KDD2010, where a
    frequent-feature head coexists with a vast uniform tail, without the
    extreme concentration of a pure power law.  Rng order per row, for
    each of the [nnz_per_row] draws: [Rng.uniform], [Rng.int hot_cols]
    or [Rng.int cols], then [Rng.gaussian] if the column is new in the
    row (a repeat is dropped).  Raises [Invalid_argument] naming the
    argument, before any draw, when [hot_fraction] is outside [\[0, 1\]],
    or when [cols < 1] while [rows] and [nnz_per_row] are positive. *)

val sparse_banded : Rng.t -> rows:int -> cols:int -> bandwidth:int -> Csr.t
(** Banded matrix (each row has up to [2*bandwidth+1] entries around the
    diagonal position scaled to [cols]) — a structured workload for tests.
    Rng order: one [Rng.gaussian] per entry, in row-major order. *)
