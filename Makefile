# Developer/CI entry points. Everything runs from a plain checkout with
# no install step: src/ goes on PYTHONPATH.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke bench bench-record cache-check check fuzz fuzz-smoke prof-smoke serve-smoke python-corpus-smoke vm-smoke incremental-smoke

# Tier-1 suite (the acceptance gate).
test:
	$(PYTHON) -m pytest -x -q

# Alias used by CI: fail fast, quiet.
smoke: test

# Experiments E1-E7 (prints the reproduced tables).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Append a timestamped E5/E3 measurement record to BENCH_5.json so perf
# changes can be compared against a stored baseline; see docs/testing.md.
# Override the label: make bench-record LABEL=my-change
LABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo manual)
bench-record:
	$(PYTHON) scripts/bench_record.py --label $(LABEL)

# Bounded differential-fuzz run (also executes inside `make test` via the
# `fuzz` marker); see docs/testing.md.  Also profiles the example corpora
# so every fuzz smoke leaves a grammar-coverage artifact behind
# (build/coverage-<grammar>.json; see docs/profiling.md).
fuzz-smoke:
	$(PYTHON) -m pytest -q -m fuzz
	@mkdir -p build
	@for g in calc json jay xc ml; do \
		$(PYTHON) -m repro.tools.prof examples/$$g --backend interp --json \
			--output build/coverage-$$g.json || exit 1; \
		echo "coverage artifact: build/coverage-$$g.json"; \
	done

# Profiler/observability tests (collector semantics, backend parity,
# corpus-coverage floors); see docs/profiling.md.
prof-smoke:
	$(PYTHON) -m pytest -q -m prof

# Parse-service smoke: the serve test subset, then a real NDJSON batch
# through a 2-worker pool with one injected timeout (the exponential
# pathological request) and one injected oversized input; asserts the
# service reports ok/timeout/rejected outcomes and stays healthy.  See
# docs/serving.md.
serve-smoke:
	$(PYTHON) -m pytest -q -m serve
	$(PYTHON) scripts/serve_smoke.py

# Real-Python corpus smoke: parse the checked-in stdlib slice
# (examples/python/) end to end with the generated python.Python parser;
# fails on any non-allowlisted parse failure or stale allowlist entry.
# See docs/grammars-python.md.
python-corpus-smoke:
	$(PYTHON) -c "from repro.workloads.pycorpus import main; raise SystemExit(main())"

# Parsing-machine smoke: the VM test file, then an end-to-end cross-check
# of machine vs generated trees on the seeded jay/xC corpora and a real-
# Python corpus sample, plus a disassembly sanity pass.  See docs/vm.md.
vm-smoke:
	$(PYTHON) -m pytest -q tests/test_vm.py
	$(PYTHON) scripts/vm_smoke.py

# Incremental-reparsing smoke: the incremental test file (memo surgery,
# session semantics, streaming, the 200-script edit property), then a
# bounded differential edit-fuzz run over every fuzz-matrix grammar — warm
# reparses after seeded edit scripts checked bit-identically against cold
# parses, and against the generated parser.  See docs/incremental.md.
incremental-smoke:
	$(PYTHON) -m pytest -q tests/test_incremental.py
	$(PYTHON) -m repro.tools.fuzz calc json jay xc ml -n 60 --edits 4 --seed 20260807

# Full seeded differential fuzz: 500 generated + 500 mutated inputs per
# grammar through every backend, strict about generator health.
fuzz:
	$(PYTHON) -m repro.tools.fuzz calc json jay -n 500 --mutated 500 --seed 20260806 --strict

# On-disk compilation-cache roundtrip: miss -> store -> hit -> corrupt
# -> rebuild (see docs/caching.md).
cache-check:
	$(PYTHON) scripts/cache_check.py

# What CI runs.
check: smoke cache-check
