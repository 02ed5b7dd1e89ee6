"""The benchmark's own tests (they do not import the program).

    python3 -m pytest tpnbench/tests -q
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import sys
from fractions import Fraction

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402
from common import Checker, digest, load_answers, probe, tail  # noqa: E402
from tracing import Recorder, chrome_document  # noqa: E402


@pytest.fixture(scope="module")
def answers():
    return load_answers()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def test_digest_mismatch_counts_as_failed_operation():
    checker = Checker({"item": digest(b"right bytes")})
    assert checker.check_body("item", b"right bytes")
    assert not checker.check_body("item", b"wrong bytes")
    assert not checker.check_body("unrecorded", b"right bytes")
    assert (checker.attempted, checker.failed) == (3, 2)
    assert "item" in checker.problems[0]


def test_record_agrees_with_goldens_and_paper_anchors(answers):
    by_id = {item["id"]: item for item in answers["items"]}
    for golden, item_id in answers["goldens"].items():
        path = ROOT / "tests" / "compiler" / "golden" / f"{golden}.json"
        if path.is_file():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == by_id[item_id]["digest"]
    for item_id, fields in answers["anchors"].items():
        for key, want in fields.items():
            assert Fraction(str(by_id[item_id]["fields"][key])) == Fraction(str(want))


# ----------------------------------------------------------------------
# Statistics and the probe
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, name, value",
    [
        (1000, "p99", 990),  # exactly 10 samples beyond the 99th
        (999, "p90", 900),   # only 9 beyond the 99th
        (20, "p50", 10),
        (15, "max", 15),     # too few for any percentile
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(count, name, value):
    samples = list(range(1, count + 1))
    assert tail(reversed(samples)) == (value, name)


def test_tail_counts_ties_as_not_beyond():
    # the 90th percentile is 2.0, and no sample lies strictly beyond it
    samples = [1.0] * 95 + [2.0] * 15
    assert tail(samples) == (1.0, "p50")


def test_probe_allocates_no_gc_tracked_objects():
    def allocating():
        return [[i] for i in range(1000)]

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        probe()  # warm
        before = gc.get_count()[0]
        probe()
        assert gc.get_count()[0] == before
        allocating()  # the check can see allocations
        assert gc.get_count()[0] != before
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def ids(items):
    return [item["id"] for item in items]


def test_seeded_draws_are_reproducible(answers):
    assert ids(plan.compile_cold_draw(answers, 7)) == ids(plan.compile_cold_draw(answers, 7))
    assert ids(plan.compile_cold_draw(answers, 7)) != ids(plan.compile_cold_draw(answers, 8))
    first = plan.sweep_warm_plan(answers, 7)
    again = plan.sweep_warm_plan(answers, 7)
    other = plan.sweep_warm_plan(answers, 8)
    assert ids(first["manifest"]) == ids(again["manifest"])
    assert ids(first["manifest"]) != ids(other["manifest"])
    assert sorted(ids(first["manifest"])) == sorted(ids(other["manifest"]))
    serve = plan.serve_mix_plan(answers, 7)
    stream = plan.serve_mix_requests(serve, 7)
    replay = plan.serve_mix_requests(plan.serve_mix_plan(answers, 7), 7)
    for _ in range(500):
        kind, item = next(stream)
        replay_kind, replay_item = next(replay)
        assert (kind, item["id"]) == (replay_kind, replay_item["id"])


def test_compile_cold_passes_cover_the_draw(answers):
    draw = plan.compile_cold_draw(answers, 3)
    passes = plan.compile_cold_passes(draw, 3)
    first = [next(passes)[1]["id"] for _ in range(len(draw))]
    assert sorted(first) == sorted(ids(draw))


def test_sweep_warm_manifest_shape(answers):
    for seed in range(5):
        shape = plan.sweep_warm_plan(answers, seed)
        assert len(shape["filled"]) == plan.SWEEP_FILLED
        assert len(shape["variants"]) == plan.SWEEP_VARIANTS
        assert len(shape["new"]) == plan.SWEEP_NEW
        assert len(set(ids(shape["manifest"]))) == len(shape["manifest"])
        loops = {item["loop"] for item in shape["filled"]}
        assert not loops & {item["loop"] for item in shape["new"]}
        cheapest_new = min(item["cost_ms"] for item in shape["new"])
        assert all(item["cost_ms"] < cheapest_new for item in shape["variants"])


def test_serve_mix_never_repeats_a_first_time_request(answers):
    for seed in range(3):
        shape = plan.serve_mix_plan(answers, seed)
        filled = set(ids(shape["filled"]))
        requests = list(plan.serve_mix_requests(shape, seed))
        misses = [item["id"] for kind, item in requests if kind == "miss"]
        assert len(misses) == len(set(misses)) == len(shape["misses"])
        assert not filled & set(misses)
        assert all(item["id"] in filled for kind, item in requests if kind == "hit")
        block = plan.SERVE_BLOCK
        for start in range(0, len(requests), block):
            kinds = [kind for kind, _ in requests[start:start + block]]
            assert kinds.count("miss") == 1


# ----------------------------------------------------------------------
# Traced-run output
# ----------------------------------------------------------------------
def test_chrome_trace_passes_the_repository_lint(tmp_path):
    lint = ROOT / "tools" / "trace_lint.py"
    if not lint.is_file():
        pytest.skip("tools/trace_lint.py is not in this checkout")
    recorder = Recorder(worker="bench-0")
    with recorder.span("compile", item="x"):
        with recorder.span("loops.parse"):
            pass
    other = Recorder(worker="serve", trace_id=recorder.trace_id)
    with other.span("batch.cache.load"):
        pass
    document = chrome_document({"bench-0": recorder.spans, "serve": other.spans}, recorder.trace_id)
    path = tmp_path / "run.trace.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    sys.path.insert(0, str(lint.parent))
    try:
        import trace_lint
    finally:
        sys.path.remove(str(lint.parent))
    assert trace_lint.lint_trace(path, strict=True) == []
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    parse = next(e for e in spans if e["name"] == "loops.parse")
    compile_span = next(e for e in spans if e["name"] == "compile")
    assert parse["args"]["parent_id"] == compile_span["args"]["span_id"]
