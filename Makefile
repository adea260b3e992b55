# Convenience targets for the Triad reproduction.

.PHONY: install test lint bench bench-kernel bench-membership bench-faults reproduce figures sweeps hunt-smoke service-smoke membership-smoke faults-smoke sweeps-smoke specs-smoke perfbench-check loc clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

# Kernel throughput: the kernel benchmarks, including the committed
# process_events_per_s floor (see docs/kernel.md). End-to-end speed is
# perfbench's job (perfbench/README.md).
bench-kernel:
	pytest benchmarks/test_bench_kernel.py

# Membership engine at cluster scale (200-node enforce-mode mesh).
bench-membership:
	pytest benchmarks/test_bench_membership.py

# Fault plane at cluster scale (10-node crash wave through a TA outage
# and a partition).
bench-faults:
	pytest benchmarks/test_bench_faults.py

reproduce:
	python examples/reproduce_paper.py

sweeps:
	python -m repro sweep attack-delay --jobs 4 --export out/sweeps
	python -m repro sweep jitter --jobs 4 --export out/sweeps
	python -m repro sweep cluster-size --jobs 4 --export out/sweeps
	python -m repro sweep aex-rate --jobs 4 --export out/sweeps

# The smoke harness. $(call jobs-cmp,DIR,ARGS,OUT,FILE) runs
# `python -m repro ARGS` at --jobs 1 and at --jobs 2; OUT is the run's
# output flag with @ standing for its own directory (DIR/j1 or DIR/j2),
# and FILE, read from both directories, must be byte-identical.
SMOKE := out/smoke

define jobs-cmp
python -m repro $(2) --jobs 1 $(subst @,$(1)/j1,$(3))
python -m repro $(2) --jobs 2 $(subst @,$(1)/j2,$(3))
cmp $(1)/j1/$(4) $(1)/j2/$(4)
@echo "smoke: $(4) byte-identical across --jobs 1/2 ($(firstword $(2)))"
endef

# Pinned-seed hunt: the corpus manifest, then a strict replay of every finding.
hunt-smoke:
	$(call jobs-cmp,$(SMOKE)/hunt,hunt --seed 7 --budget 24,--corpus-dir @,MANIFEST.json)
	ls $(SMOKE)/hunt/j2/findings/*.json
	for spec in $(SMOKE)/hunt/j2/findings/*.json; do \
		python -m repro run-spec "$$spec" --oracle strict || exit 1; \
	done

# Pinned-seed service runs (1M sessions benign, 100k under the F−
# propagation cascade); the benign workload passes the strict oracle.
SERVICE_RUN = service --duration-s 30 --quorum 3 --seed 11 --no-cache
service-smoke:
	$(call jobs-cmp,$(SMOKE)/service-benign,$(SERVICE_RUN) --sessions 1000000,--json @/report.json,report.json)
	$(call jobs-cmp,$(SMOKE)/service-propagation,$(SERVICE_RUN) --sessions 100000 --attack fminus-propagation,--json @/report.json,report.json)
	python -m repro $(SERVICE_RUN) --sessions 100000 --oracle strict

# Membership control plane: churn runs, the F− containment race passes the
# strict oracle in enforce mode, and a benign observation run flips no verdicts.
membership-smoke:
	$(call jobs-cmp,$(SMOKE)/membership-churn,membership --attack churn --nodes 5 --duration-s 20 --no-cache,--json @/report.json,report.json)
	python -m repro membership --oracle strict --no-cache --json $(SMOKE)/membership-propagation.json
	python -m repro membership --attack benign --duration-s 15 --no-cache --oracle strict

# Fault plane: crash-restart and the TA flap pass the strict oracle
# (recovery invariant armed), the mixed crash + outage + partition report
# is deterministic, and the bounded-retry baseline must fail strict.
faults-smoke:
	python -m repro faults --scenario crash-restart --no-cache --oracle strict
	python -m repro faults --scenario ta-flap --no-cache --oracle strict
	$(call jobs-cmp,$(SMOKE)/faults-mixed,faults --scenario crash-outage-partition --no-cache,--json @/report.json,report.json)
	@if python -m repro faults --scenario no-retry --no-cache --oracle strict; then \
		echo "no-retry baseline unexpectedly passed the strict oracle" >&2; exit 1; \
	fi

# Every sweep on its default grid passes the strict oracle, and its
# exported CSV is byte-identical across --jobs 1/2.
sweeps-smoke:
	$(call jobs-cmp,$(SMOKE)/sweeps,sweep attack-delay --oracle strict --no-cache,--export @,sweep_attack-delay.csv)
	$(call jobs-cmp,$(SMOKE)/sweeps,sweep jitter --oracle strict --no-cache,--export @,sweep_jitter.csv)
	$(call jobs-cmp,$(SMOKE)/sweeps,sweep cluster-size --oracle strict --no-cache,--export @,sweep_cluster-size.csv)
	$(call jobs-cmp,$(SMOKE)/sweeps,sweep aex-rate --oracle strict --no-cache,--export @,sweep_aex-rate.csv)

# Every example spec passes the strict oracle; each run's stdout is kept
# under out/smoke/specs/.
specs-smoke:
	mkdir -p $(SMOKE)/specs
	for spec in examples/specs/*.json; do \
		python -m repro run-spec "$$spec" --oracle strict > $(SMOKE)/specs/$$(basename $$spec .json).txt || exit 1; \
	done
	@echo "smoke: every example spec passes the strict oracle"

# The benchmark's correctness gate: perfbench's own tests, then a 1-s run
# of every BENCHMARK.json workload untraced and traced. run.py exits 0 even
# when an experiment fails (digest drift, or a tracer that can no longer
# wrap its targets), so the last stdout line's "correct" flag decides.
PERFBENCH_WORKLOADS = $(shell python3 -c "import json; print(*(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")
perfbench-check:
	python3 -m pytest perfbench/tests
	mkdir -p out/perfbench
	for workload in $(PERFBENCH_WORKLOADS); do for trace in 0 1; do \
		log=out/perfbench/$$workload-trace$$trace.log; \
		python3 perfbench/run.py --workload $$workload --seed 1 --seconds 1 --trace $$trace > $$log || exit 1; \
		cat $$log; \
		tail -n 1 $$log | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)' \
			|| { echo "perfbench-check: $$workload --trace $$trace is not correct" >&2; exit 1; }; \
	done; done

# Size of the package: physical lines and code lines (no blanks,
# comments or docstrings) under src/repro.
loc:
	python3 tools/loc.py src/repro

figures:
	python -m repro run fig2 --export out/fig2
	python -m repro run fig3 --export out/fig3
	python -m repro run fig4 --export out/fig4
	python -m repro run fig5 --export out/fig5
	python -m repro run fig6 --export out/fig6

clean:
	rm -rf out .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
