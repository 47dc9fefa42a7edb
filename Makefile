# Convenience targets for the reproduction repository.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-slow test-all test-deprecations perfbench-check perfbench-ab bench bench-quick bench-equivalence bench-trace bench-profile bench-invariants bench-mitigation bench-mitigation-smoke chaos-smoke experiments experiments-quick examples timings clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

test-all:
	$(PYTHON) -m pytest tests/ -m "slow or not slow"

# Tier-1 with DeprecationWarnings from repro.* promoted to errors: no
# in-repo caller may lean on a deprecated API of the repo's own (a test
# exercising a future shim uses pytest.warns, which overrides the filter
# inside its block).
test-deprecations:
	$(PYTHON) -m pytest tests/ -x -q -W "error::DeprecationWarning:repro"

# One short traced perfbench run per workload: every iteration's
# outcome (tables, sim.events, net.frames, nic.rules_evaluated) and
# traced work counts (crypto.blocks, firewall.rules_charged) must equal
# perfbench/reference.json; run.py exits 1 on any mismatch (CI runs this).
PERFBENCH_WORKLOADS := bulk-tcp flood-64b http-vpg sweep-quick

perfbench-check:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "== perfbench $$w =="; \
		$(PYTHON) perfbench/run.py --workload $$w --seconds 2 --trace 1 || exit 1; \
	done

# Interleaved A/B of one workload's norm_wall_s: BASE checked out in a
# temporary git worktree against this working tree, PAIRS alternating
# pairs of 27 s untraced runs; prints medians, quartiles, per-pair ratios
# and the win count (reported, not enforced).
BASE ?= HEAD
WORKLOAD ?= bulk-tcp
PAIRS ?= 10

perfbench-ab:
	$(PYTHON) benchmarks/perfbench_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Every parallel_bench.py leg on the quick presets: serial-vs-parallel
# wall-clock, matcher equivalence and the four instrument-overhead legs,
# each merged into BENCH_parallel.json (budgets reported, not enforced).
bench-quick:
	$(PYTHON) benchmarks/parallel_bench.py

# Compiled classifier vs the linear reference walk: byte-identical
# quick-preset tables -> BENCH_equivalence.json (CI runs this).  The
# per-lookup speedup at depth 32/64 is in `make bench` (bench_micro.py).
bench-equivalence:
	$(PYTHON) benchmarks/parallel_bench.py fig2 fig3a fig3b table1 --legs equivalence -o BENCH_equivalence.json

# Tracing overhead on the fig2 quick preset: no tracer vs sampled vs full,
# interleaved, identical tables required; merged into BENCH_parallel.json.
# Fails when the *absent* tracer costs >3% over the recorded pre-tracing
# baseline (CI runs this).
bench-trace:
	$(PYTHON) benchmarks/parallel_bench.py fig2 --legs trace --gate

# Wall-clock profiler overhead on the fig2 quick preset: profiler absent
# vs fully on (stack collection included), identical tables required;
# merged into BENCH_parallel.json.  Fails when the *absent* profiler
# costs >3% over the recorded pre-profiler baseline or the fully-on
# profiler costs >35% over the absent run (CI runs this).
bench-profile:
	$(PYTHON) benchmarks/parallel_bench.py fig2 --legs profile --gate

# Runtime invariant-monitor overhead on the fig2 quick preset: monitors
# absent vs warn mode, identical tables required; merged into
# BENCH_parallel.json.  Fails when warn mode costs >5% over the
# monitors-absent run (CI runs this).
bench-invariants:
	$(PYTHON) benchmarks/parallel_bench.py fig2 --legs invariants --gate

# Chaos smoke: the trimmed scenario grid under fail-fast invariants —
# every fault injects and clears on schedule and no invariant is
# violated on any point (CI runs this).
chaos-smoke:
	$(PYTHON) -m repro.experiments chaos --preset quick --invariants fail-fast --no-progress

# Fleet-scale kernel benchmark: 4/32/128/256-host flood scenarios on the
# multi-switch fabric, current vs embedded pre-PR kernel/switch, plus the
# gated (>=3x at >=128 hosts) timer-dispatch leg -> BENCH_parallel.json.
bench-fleet:
	$(PYTHON) benchmarks/fleet_bench.py

bench-fleet-smoke:
	$(PYTHON) benchmarks/fleet_bench.py --smoke

# Closed-loop flood defense: recovery fraction + detection/mitigation
# latency per (device, defense mode), gated on the undefended-EFW
# collapse and >=80% recovery for rate-limit/quarantine -> merged into
# BENCH_parallel.json (CI runs the smoke variant).
bench-mitigation:
	$(PYTHON) benchmarks/mitigation_bench.py

bench-mitigation-smoke:
	$(PYTHON) benchmarks/mitigation_bench.py --smoke

experiments:
	$(PYTHON) -m repro.experiments all

experiments-quick:
	$(PYTHON) -m repro.experiments all --quick

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

# Regenerate the committed full-preset reference artefacts: the tables
# (experiments_output.txt) and the per-experiment serial timing log
# (experiments_timing.txt).  Serial so the recorded timings are
# comparable across revisions; expect tens of minutes.
timings:
	$(PYTHON) -m repro.experiments all --jobs 1 --no-progress > experiments_output.txt 2> experiments_timing.txt

clean:
	rm -rf src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
