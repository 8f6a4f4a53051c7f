# Convenience targets for the reproduction repository.

PYTHON ?= python3

.PHONY: install test coverage bench bench-json bench-parallel \
	bench-membership bench-kernel bench-policies bench-smoke bench-pairs \
	codelines metrics \
	examples experiments lint profile clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

coverage:
	$(PYTHON) -m pytest tests/ --cov=repro \
		--cov-report=term-missing --cov-fail-under=75

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Machine-readable benchmark artefacts: the full pytest-benchmark dump
# goes to BENCH_benchmarks.json (not committed), and bench_parallel
# appends its serial-vs-parallel measurement to the committed
# trajectory BENCH_parallel.json.
bench-json:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q \
		--benchmark-json=BENCH_benchmarks.json

# Just the parallel-engine speedup benchmark (appends the trajectory).
bench-parallel:
	$(PYTHON) -m pytest benchmarks/bench_parallel.py --benchmark-only -s

# Dynamic-membership overhead benchmark (appends BENCH_membership.json).
bench-membership:
	$(PYTHON) -m pytest benchmarks/bench_membership.py --benchmark-only -s

# Quorum policy spectrum + mitigation ablations (appends
# BENCH_policies.json; asserts hinted handoff and read repair each
# reduce witnessed staleness).
bench-policies:
	$(PYTHON) -m pytest benchmarks/bench_quorum_policies.py \
		--benchmark-only -s

# Serial kernel throughput (events/sec through the simulator hot path).
# Appends a labelled record to the committed BENCH_kernel.json
# trajectory and runs the golden-trace equivalence suite first, so a
# faster-but-wrong kernel never gets a trajectory entry.
bench-kernel:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/sim/test_kernel_equivalence.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_kernel.py

# The whole-stack benchmark (BENCHMARK.json) at smoke sizes plus its own
# plumbing tests: measures nothing, but fails if one of the seams it
# patches by name (the four protocol operations, the five Network entry
# points) or a span-vs-counter cross-check no longer holds.
bench-smoke:
	$(PYTHON) benchmarks/stack/run.py --smoke
	$(PYTHON) -m pytest benchmarks/stack -q

# The measurement behind a performance claim: alternating pairs of one
# BENCHMARK.json workload in a checkout of the parent (A) and of the
# change (B, this tree unless given), every run and the medians,
# quartiles and B-better count per end-to-end metric.
#   make bench-pairs A=../parent W=fs_cached SEED=23
B ?= .
PAIRS ?= 10
bench-pairs:
	$(PYTHON) benchmarks/pairs.py --a $(A) --b $(B) --workload $(W) \
		--seed $(SEED) --pairs $(PAIRS)

# cProfile over one full-scale repeat of a BENCHMARK.json workload, timed
# region only: the top 25 functions by self and by cumulative time.  The
# first stop for any hot-path investigation; writes nothing.
#   make profile W=chaos_reconfig SEED=23
profile:
	$(PYTHON) benchmarks/profile.py --workload $(or $(W),block_mcv) \
		--seed $(or $(SEED),7)

# Code lines per file (ast + tokenize: blank lines, comments and
# docstrings do not count) under P at revision FROM and at TO (default:
# the working tree), with the totals and the difference.
#   make codelines FROM=cdd3df4 P="src/repro/net src/repro/analysis"
codelines:
	$(PYTHON) benchmarks/codelines.py --a $(FROM) $(if $(TO),--b $(TO)) \
		$(or $(P),src/repro)

# Smoke test of the observability layer: a short traced workload whose
# JSON-lines trace is schema-validated on re-read (the CLI exits
# non-zero if any span fails validation).
metrics:
	$(PYTHON) -m repro metrics --horizon 500 --trace /tmp/repro-trace.jsonl
	$(PYTHON) -m pytest tests/obs/ -q

# Static checks. ruff and mypy are optional (install the `lint` extra);
# the repro.lint determinism/invariant linter is stdlib-only and always
# runs. Each tool must exit zero for the target to pass.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro lint src

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done

experiments:
	@$(PYTHON) -m repro list | while read id; do \
		$(PYTHON) -m repro run $$id || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/output
	find . -name __pycache__ -type d -exec rm -rf {} +
