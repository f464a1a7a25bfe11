# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-full:
	dune exec bench/main.exe -- --full

# Real multicore host-backend benchmark; writes BENCH_host.json.
bench-host:
	dune exec bench/host_suite.exe

bench-host-small:
	dune exec bench/host_suite.exe -- --small

# Plan compiler vs the unfused reference interpreter; writes BENCH_plan.json.
bench-plan:
	dune exec bench/plan_suite.exe

bench-plan-small:
	dune exec bench/plan_suite.exe -- --small

# Guard overhead (faults off) + checkpoint write cost; writes BENCH_resil.json.
bench-resil:
	dune exec bench/resil_suite.exe

bench-resil-small:
	dune exec bench/resil_suite.exe -- --small

# Scoring-service micro-batching: window vs throughput/p99 on the Host
# engine; writes BENCH_serve.json.
bench-serve:
	dune exec bench/serve_suite.exe

bench-serve-small:
	dune exec bench/serve_suite.exe -- --small

# Sharded multi-process tier: 1D vs 1.5D allreduce bytes and wall clock
# by worker count, plus the netmodel's layout predictions; writes
# BENCH_dist.json.
bench-dist:
	dune exec bench/dist_suite.exe

bench-dist-small:
	dune exec bench/dist_suite.exe -- --small

# FusedMM graph workloads: fused SDDMM+SpMM vs the unfused two-kernel
# composition, host wall-clock and simulated device time; writes
# BENCH_graph.json.
bench-graph:
	dune exec bench/graph_suite.exe

bench-graph-small:
	dune exec bench/graph_suite.exe -- --small

# Refresh the committed bench baselines from quick --small runs.
bench-baseline: bench-host-small bench-plan-small bench-serve-small \
		bench-dist-small bench-graph-small
	mkdir -p bench/baselines
	cp BENCH_host.json BENCH_plan.json BENCH_serve.json BENCH_dist.json \
	  BENCH_graph.json bench/baselines/

# Regression gate: fresh --small runs compared against bench/baselines;
# fails (exit 1) when a metric moves past the noise threshold in the
# bad direction.  The 15% default suits a quiet machine; on a loaded or
# shared box raise it (`make bench-check BENCH_THRESHOLD=0.5`).
# Self-test the gate by appending `--inject 0.2` to the regress
# invocation — it must then fail.
BENCH_THRESHOLD ?= 0.15
bench-check: bench-host-small bench-plan-small bench-serve-small \
		bench-dist-small bench-graph-small
	dune exec bench/regress.exe -- --baseline bench/baselines --fresh . \
	  --threshold $(BENCH_THRESHOLD)

# Bit-exactness gate: re-run the 32 `kf train --json` runs in
# test/golden/train_checksums.tsv (8 algorithms x fused, host on 1 and
# on 2 domains at 256 columns, plus the 4 CG solvers on the host at
# 1,024) and the 8 checkpoint-writing runs in
# test/golden/ckpt_checksums.tsv, and print every row whose weights or
# checkpoint payload checksum differs.
golden-check:
	dune build bin/kf.exe
	sh test/golden/check.sh _build/default/bin/kf.exe \
	  test/golden/train_checksums.tsv test/golden/ckpt_checksums.tsv

examples:
	for e in quickstart linear_regression spam_filter page_quality \
	         autotune_explorer out_of_core insurance_claims; do \
	  echo "== $$e"; dune exec examples/$$e.exe || exit 1; done

clean:
	dune clean

.PHONY: all test test-verbose bench bench-full bench-host bench-host-small \
	bench-plan bench-plan-small bench-resil bench-resil-small \
	bench-serve bench-serve-small bench-dist bench-dist-small \
	bench-baseline bench-check golden-check examples clean
