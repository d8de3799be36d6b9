# Communication-Optimal Convex Agreement reproduction -- dev targets.

PYTHON ?= python

.PHONY: install test bench perfbench perfbench-test perfbench-pairs examples report clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

# The paper-claim experiments T1-F9 (F9 is the mutant kill matrix):
# deterministic, re-emits
# benchmarks/BENCH_{experiments,bombs,partition,mutants}.json (CI diffs them).
bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest benchmarks/ -q

# The repository's benchmark (BENCHMARK.json): all four workloads, 20 s each.
# Byte-compiled first, as perfbench_pairs.py does for both trees: with
# PYTHONDONTWRITEBYTECODE set, an uncompiled tree pays compilation in
# every child's setup_s.
perfbench:
	$(PYTHON) -m compileall -q src perfbench
	$(PYTHON) perfbench/run.py

# Its plumbing checks (--smoke runs, a few seconds).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# Alternating pairs against another revision, the way a gain is claimed:
#   make perfbench-pairs BASE=<rev> WORKLOAD=<name> [SEED=0] [PAIRS=10]
SEED ?= 0
PAIRS ?= 10
perfbench-pairs:
	$(PYTHON) benchmarks/perfbench_pairs.py --base $(BASE) \
		--workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS)

examples:
	@set -e; for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script; \
		echo; \
	done

# The committed experiment document (what `make bench` re-emits), as tables.
report:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro report

clean:
	rm -rf .pytest_cache build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
