(** Memory-coalescing model.

    Global memory is accessed in aligned 128-byte transactions; a warp
    touching [k] distinct 128-byte lines costs [k] transactions.  These
    helpers compute transaction counts from the *actual addresses* a warp
    (or a [VS]-thread vector) touches, which is what makes the simulator's
    load counts faithful to profiler output rather than asymptotic
    guesses. *)

val segment :
  transaction_bytes:int -> bytes_per_elt:int -> start:int -> count:int -> int
(** Transactions for [count] consecutive elements beginning at element
    index [start] of an array whose base is transaction-aligned — the
    coalesced access of CSR-vector reading a strip of [values]. *)

val gather_sorted :
  transaction_bytes:int ->
  bytes_per_elt:int ->
  indices:int array ->
  lo:int ->
  hi:int ->
  int
(** Distinct lines touched by the element indices [indices.(lo..hi-1)]
    — the scattered access of a sparse multiply walking column indices.
    The indices must be sorted (non-decreasing), which holds for CSR
    column indices within a row; one linear scan. *)

val strided :
  transaction_bytes:int ->
  bytes_per_elt:int ->
  start:int ->
  stride:int ->
  count:int ->
  int
(** Transactions for a strided warp access (e.g. threads reading one
    element each from consecutive rows of a dense column-major walk). *)
