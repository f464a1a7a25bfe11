open Gpu_sim

(** The analytical launch-parameter model of Section 3.3.

    Given the input matrix's characteristics and the device limits, the
    model picks:

    - the vector size [VS] — Equation 4 (sparse, from mean non-zeros per
      row) or Equation 6 (dense, from columns per thread load);
    - the block size [BS] — maximising occupancy under the CC 3.5
      allocation rules ({!Gpu_sim.Occupancy});
    - the coarsening degree [C] — Equation 5, balancing all rows over the
      concurrently resident vectors;
    - the thread load [TL] (dense only) — bounded by register pressure
      (23 registers at [TL = 1], 255 at [TL = 40]; beyond that the
      compiler would spill) and refined to avoid wasted warp loads.

    On the paper's worked example (500k x 1k CSR, sparsity 0.01) the model
    reproduces the published choice exactly: VS = 8, BS = 640, 8,832 B of
    shared memory, 2 blocks/SM (28 blocks), C = 223 rows per vector
    (we round C up to guarantee coverage, giving 224). *)

val sparse_kernel_registers : int
(** 43 — the paper's profiler measurement for the fused sparse kernel. *)

val sparse_vector_size : float -> int
(** Equation 4: [VS] from the mean number of non-zeros per row. *)

val max_shared_columns : Device.t -> int
(** Largest column count for which the partial result [w] still fits in
    shared memory (about 6K on a 48 KB device); beyond it the large-column
    variant (global-memory aggregation) is selected. *)

type sparse_plan = {
  sp_vs : int;
  sp_bs : int;
  sp_coarsening : int;
  sp_grid : int;
  sp_shared_bytes : int;
  sp_regs : int;
  sp_large_n : bool;  (** aggregation moved to global memory *)
  sp_occupancy : Occupancy.result;
}

val sparse_plan : Device.t -> Matrix.Csr.t -> sparse_plan
(** The model's choice for the fused sparse kernel on this matrix. *)

val sparse_plan_with :
  Device.t -> Matrix.Csr.t -> vs:int -> bs:int -> coarsening:int ->
  sparse_plan option
(** A manually specified configuration (used to sweep the search space of
    Figure 6); [None] if it cannot launch. *)

val enumerate_sparse_plans :
  Device.t -> Matrix.Csr.t -> vs:int -> (int * int * sparse_plan) list
(** The (BS, C) search space of Figure 6 for a fixed [vs]: block sizes
    [{32, 64, ..., 1024}] crossed with coarsening degrees swept around the
    balanced value; about 1,200 launchable settings at the paper's matrix
    shape.  Returns [(bs, c, plan)] triples. *)

type dense_plan = {
  dp_vs : int;
  dp_bs : int;
  dp_tl : int;
  dp_coarsening : int;
  dp_grid : int;
  dp_regs : int;
  dp_shared_bytes : int;
  dp_padded_cols : int;  (** columns after padding to a multiple of VS *)
  dp_occupancy : Occupancy.result;
}

val dense_registers : tl:int -> int
(** Registers the generated kernel needs at a given thread load: 23 at
    [TL = 1] growing to 255 at [TL = 40] (the paper's profiled range). *)

val max_dense_thread_load : int
(** 40 — beyond this the kernel spills registers. *)

val dense_vector_size : cols:int -> tl:int -> int
(** Equation 6. *)

val dense_plan : Device.t -> rows:int -> cols:int -> dense_plan

val dense_plan_with :
  Device.t -> rows:int -> cols:int -> tl:int -> dense_plan option

val pp_sparse_plan : Format.formatter -> sparse_plan -> unit

val pp_dense_plan : Format.formatter -> dense_plan -> unit
