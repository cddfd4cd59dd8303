# Convenience targets for the SenseDroid reproduction.

PYTHON ?= python3

.PHONY: install test lint hygiene loc bench bench-perf bench-async bench-rob-byz bench-overload bench-mega bench-ingest bench-rob-gate bench-layers bench-layers-smoke bench-pair gateway report examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Three gates: ruff (general Python), reprolint (project invariants —
# always available, pure stdlib), mypy (typed core/middleware).  Ruff
# and mypy are skipped with a notice when not installed so `make lint`
# works in the minimal runtime environment; CI installs pinned
# versions of both, so the full gate always runs there.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "lint: ruff not installed, skipping (CI runs it)"; \
	fi
# reprolint: one pass, each file parsed once, every rule (the cross-file
# RPR012 folds the literal-seed sites each file records).
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "lint: mypy not installed, skipping (CI runs it)"; \
	fi

# Fail if bytecode artefacts ever get committed.
hygiene:
	@bad="$$(git ls-files | grep -E '(^|/)__pycache__(/|$$)|\.pyc$$' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "hygiene: bytecode artefacts tracked in git:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "hygiene: no bytecode artefacts tracked"

# The numbers the ROADMAP's simplicity targets track: lines of Python
# per src/repro package, the field counts of every config dataclass,
# reprolint's live rules, and the allow[...] pragma lines outside the
# linter itself.
loc:
	@for pkg in src/repro/[!_]*/; do \
		printf '%-26s %6d\n' "$$pkg" \
			"$$(find "$$pkg" -name '*.py' -exec cat {} + | wc -l)"; \
	done
	@printf '%-26s %6d\n' "src/repro (total)" \
		"$$(find src/repro -name '*.py' -exec cat {} + | wc -l)"
	@PYTHONPATH=src $(PYTHON) -c "import dataclasses; \
		from repro.middleware.config import BrokerConfig, NodeConfig, \
			HierarchyConfig, CompressionPolicy; \
		from repro.middleware.overload import OverloadConfig; \
		from repro.gateway.server import GatewayConfig, ResilienceConfig; \
		from repro.sim.mega import MegaConfig; \
		from repro.sim.population import PopulationConfig; \
		from repro.analysis import RULES; \
		configs = (BrokerConfig, MegaConfig, PopulationConfig, \
			GatewayConfig, ResilienceConfig, NodeConfig, OverloadConfig, \
			HierarchyConfig, CompressionPolicy); \
		[print('%-26s %6d' % (c.__name__ + ' fields', \
			len(dataclasses.fields(c)))) for c in configs]; \
		print('%-26s %6d' % ('reprolint live rules', len(RULES)))"
	@printf '%-26s %6d\n' "allow[...] pragma lines" \
		"$$(grep -rn 'reprolint: allow' src/repro --include='*.py' \
			| grep -vc '^src/repro/analysis/')"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Smoke-mode solver perf bench: small sizes, no timing assertions —
# runs chs/omp against their reference oracles and one full round.
# Unset REPRO_PERF_SMOKE (and give it a quiet machine) for the real
# numbers committed in BENCH_PERF.json.
bench-perf:
	REPRO_PERF_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_perf_solver_core.py --benchmark-disable -s

# Smoke-mode event-driven round bench: a short link-latency x deadline
# sweep.  Unset REPRO_ASYNC_SMOKE for the full ASYNC-LAT series.
bench-async:
	REPRO_ASYNC_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_async_rounds.py --benchmark-disable -s

# Smoke-mode Byzantine-sensor bench: small grid, short adversarial
# sweep.  Unset REPRO_ROBBYZ_SMOKE for the full N=1024 ROB-BYZ series.
bench-rob-byz:
	REPRO_ROBBYZ_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_robustness_byzantine.py --benchmark-disable -s

# Smoke-mode overload bench: small grid, short flood sweep.  Unset
# REPRO_OVERLOAD_SMOKE for the full 1x-10x OVERLOAD brownout series.
bench-overload:
	REPRO_OVERLOAD_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_overload_brownout.py --benchmark-disable -s

# Smoke-mode city-scale bench: small populations, no timing
# assertions.  Unset REPRO_MEGA_SMOKE for the full 100k-node MEGA
# series committed in BENCH_MEGA.json.
bench-mega:
	REPRO_MEGA_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_mega_scale.py --benchmark-disable -s

# Smoke-mode ingestion-gateway bench: small WebSocket fleets, no rate
# assertions.  Unset REPRO_INGEST_SMOKE for the full >=1k-client
# INGEST series committed in BENCH_INGEST.json.
bench-ingest:
	REPRO_INGEST_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_ingest_gateway.py --benchmark-disable -s

# Smoke-mode gateway-resilience bench: small fleet under the seeded
# 30%-per-round reconnect storm.  Unset REPRO_ROBGATE_SMOKE for the
# full >=500-client ROB-GATE series committed in BENCH_ROBGATE.json.
bench-rob-gate:
	REPRO_ROBGATE_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_robustness_gateway.py --benchmark-disable -s

# The layered benchmark BENCHMARK.json declares: every workload,
# untraced then traced, rewriting benchmarks/perf/results/latest.json
# (several minutes; see benchmarks/perf/README.md).
bench-layers:
	$(PYTHON) benchmarks/perf/run.py

# Its own tests plus all four workloads at tiny sizes, no timing
# assertions (< 1 min).
bench-layers-smoke:
	$(PYTHON) -m pytest benchmarks/perf -q
	$(PYTHON) benchmarks/perf/run.py --smoke

# Alternating base/head pairs of one layered-benchmark workload — the
# protocol for claiming a gain: `make bench-pair BASE=HEAD~1
# WORKLOAD=city_mobility PAIRS=10`, then the same at an unused seed
# (`SEED=23`).  SEED (default 7) and SECONDS (per run; default
# BENCHMARK.json's run_seconds) are passed on only when set.  BASE is
# checked out into a temporary git worktree; the working tree is the
# other side.
BASE ?= HEAD
WORKLOAD ?= city_mobility
PAIRS ?= 5
bench-pair:
	$(PYTHON) benchmarks/pair.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) $(if $(SEED),--seed $(SEED)) \
		$(if $(SECONDS),--seconds $(SECONDS))

# Serve a live ingestion gateway on localhost:8765 (Ctrl-C to stop).
gateway:
	PYTHONPATH=src $(PYTHON) -m repro.gateway --port 8765

report: bench
	$(PYTHON) -m repro.reporting benchmarks/results REPORT.md

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .mypy_cache .ruff_cache benchmarks/results REPORT.md
	find . -name __pycache__ -type d -exec rm -rf {} +
	find src tests benchmarks -name '*.pyc' -delete 2>/dev/null || true
