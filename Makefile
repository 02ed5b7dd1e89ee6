PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify test bench-selftest answers smoke sweep-smoke trace-smoke explain-smoke serve-smoke unroll-smoke stagecache-smoke doctest linkcheck docstring-lint bench bench-check baseline dash clean

verify: test bench-selftest answers doctest linkcheck docstring-lint smoke sweep-smoke trace-smoke explain-smoke serve-smoke unroll-smoke stagecache-smoke

test:
	$(PYTHON) -m pytest -x -q

# the outside-in benchmark's own tests: recorded answers against the
# goldens and the paper anchors, the seeded draws, the trace lint
bench-selftest:
	$(PYTHON) -m pytest tpnbench/tests -q

# every recorded tpnbench answer, compiled cold into a fresh store and
# then warm from it, must reproduce its payload digest
answers:
	$(PYTHON) tools/check_answers.py

doctest:
	$(PYTHON) -m pytest --doctest-modules src/repro/petrinet src/repro/core src/repro/digraph.py -q

linkcheck:
	$(PYTHON) tools/check_links.py

# module/public-def docstrings are mandatory in the operated subsystems
docstring-lint:
	$(PYTHON) tools/docstring_lint.py

smoke:
	$(PYTHON) -m repro trace examples/l1.loop --abstract -o /tmp/l1.trace.json
	$(PYTHON) -m repro trace examples/l2.loop --abstract --format jsonl -o /tmp/l2.trace.jsonl
	$(PYTHON) -m repro schedule examples/l2.loop --abstract --profile
	$(PYTHON) -m repro dash examples/l1.loop -o /tmp/l1.dash.html
	$(PYTHON) -m repro dash examples/l2.loop --abstract -o /tmp/l2.dash.html

# cold sweep fills the cache, warm sweep must hit 100% and merge to
# the same bytes — the cache-correctness smoke the CI gate runs twice
sweep-smoke:
	rm -rf /tmp/repro-sweep-cache
	$(PYTHON) -m repro sweep benchmarks/manifests/scaling.json \
		--cache-dir /tmp/repro-sweep-cache -o /tmp/sweep.cold.json
	$(PYTHON) -m repro sweep benchmarks/manifests/scaling.json \
		--cache-dir /tmp/repro-sweep-cache --workers 2 --require-hits \
		-o /tmp/sweep.warm.json
	cmp /tmp/sweep.cold.json /tmp/sweep.warm.json

# traced parallel sweep end to end: the merged trace must be lint-clean
# with a lane per worker, and the exposition must parse as OpenMetrics
trace-smoke:
	$(PYTHON) -m repro sweep benchmarks/manifests/scaling.json \
		--no-cache --workers 4 --no-progress \
		--trace /tmp/sweep.trace.json --metrics-out /tmp/sweep.metrics.txt
	$(PYTHON) tools/trace_lint.py /tmp/sweep.trace.json --require-lanes 4 --strict
	$(PYTHON) -c "import pathlib; from repro.obs import parse_exposition; \
		parse_exposition(pathlib.Path('/tmp/sweep.metrics.txt').read_text()); \
		print('/tmp/sweep.metrics.txt: exposition is valid OpenMetrics')"

# the service end to end: healthz, cold/warm compile byte-identical to
# `repro compile`, OpenMetrics, and a clean SIGTERM drain
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# rate-optimal unrolling end to end: two fractional-γ loops compiled
# with `--unroll auto` must report achieved == γ* Fraction-exact
unroll-smoke:
	$(PYTHON) tools/unroll_smoke.py

# the staged compiler core end to end: upstream artifacts are reused
# across requests, rebuilds from the stage store are byte-identical,
# and failures name their stage
stagecache-smoke:
	$(PYTHON) tools/stagecache_smoke.py

# causal blame end to end: the observed critical path must match a
# structural critical cycle, the flow trace must be lint-clean, and the
# wait-state exposition must parse as OpenMetrics
explain-smoke:
	$(PYTHON) -m repro explain examples/l1.loop --abstract \
		-o /tmp/explain.l1.txt \
		--trace /tmp/explain.flow.json --metrics-out /tmp/explain.metrics.txt
	grep -q "matches a structural critical cycle\|matches the Howard witness" \
		/tmp/explain.l1.txt
	$(PYTHON) -m repro explain examples/l2.loop --abstract -o /tmp/explain.l2.txt
	grep -q "matches the Howard witness" /tmp/explain.l2.txt
	$(PYTHON) tools/trace_lint.py /tmp/explain.flow.json --strict
	$(PYTHON) -c "import pathlib; from repro.obs import parse_exposition; \
		parse_exposition(pathlib.Path('/tmp/explain.metrics.txt').read_text()); \
		print('/tmp/explain.metrics.txt: exposition is valid OpenMetrics')"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# the CI perf gate: current results vs the committed baseline records
bench-check:
	$(PYTHON) -m repro bench-check

# rewrite benchmarks/ledger/baseline.jsonl from the current results
baseline:
	$(PYTHON) -m repro bench-check --update-baseline

dash:
	$(PYTHON) -m repro dash examples/l1.loop -o benchmarks/results/l1.dash.html
	$(PYTHON) -m repro dash examples/l2.loop --abstract -o benchmarks/results/l2.dash.html

clean:
	rm -f /tmp/l1.trace.json /tmp/l2.trace.jsonl /tmp/l1.dash.html /tmp/l2.dash.html
	rm -rf /tmp/repro-sweep-cache /tmp/sweep.cold.json /tmp/sweep.warm.json
	rm -f /tmp/sweep.trace.json /tmp/sweep.metrics.txt
	rm -f /tmp/explain.flow.json /tmp/explain.metrics.txt
	rm -f /tmp/explain.l1.txt /tmp/explain.l2.txt
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
