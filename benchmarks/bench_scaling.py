"""Section 5's O(n) claim — detection-time scaling on synthetic loop
families, measured under both simulation engines.

The paper proves an O(n⁴) worst-case bound (Section 4) but measures
O(n) on real loops.  This bench sweeps loop-body size n over three
families:

* ``chain``: a DOALL dependence chain ``T_k = T_{k-1} + IN``
  (deep pipeline, no recurrence);
* ``recurrence``: the same chain closed with a loop-carried arc from
  the last statement to the first (one long critical cycle);
* ``sparse``: the recurrence chain with every execution time raised to
  τ = 16 — the regime where most ticks are quiet, so the step engine
  pays for elapsed *time* while the event engine only pays for
  *events*.

A second sweep runs the chain and recurrence bodies on a single clean
pipeline of depth l ∈ {4, 8} (the SDSP-SCP-PN of §5.2) under
:class:`~repro.machine.FifoRunPlacePolicy` — the run-place conflict,
the FIFO queue in the state and the pipeline's dummy transitions are
what make SCP detection the slowest simulation of a compile.

A third sweep times construction on a big loop: one cold compile of
the A-code ``chain_source(n, recurrence=True)`` at n ∈ {100, 200, 400,
800}, whose ``translate``, ``rate_analysis`` and ``build_pn`` stages
build, validate and analyse graphs and nets of ~3n instructions.  Each
must grow at most :data:`CONSTRUCTION_GROWTH` times from n = 400 to
800: construction is linear in the loop.

Every size runs under both the step and the event engine; the payload
records only facts the two engines are asserted to agree on (frustum
boundaries, event counts), so the regression gate sees one
engine-independent truth.  Per-engine wall clock goes into the
volatile ``timing`` section as ``engine.step`` / ``engine.event`` and
``scp.engine.step`` / ``scp.engine.event`` pseudo-phases, and the
sparse family at the largest size must show the event engine at least
5× faster — the headline of the event-driven engine PR.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import pytest

from benchmarks.conftest import phase_timings, save_artifact, save_json
from repro.batch.manifest import chain_source
from repro.compiler.manager import PassManager, make_request
from repro.core import build_sdsp_pn, build_sdsp_scp_pn
from repro.loops import parse_loop, translate
from repro.machine import FifoRunPlacePolicy
from repro.petrinet import TimedPetriNet, detect_frustum
from repro.report import render_table

SIZES = [4, 8, 16, 32, 64, 128]
SPARSE_TAU = 16
ENGINES = ("step", "event")
# (family name, loop-carried recurrence?, execution time per transition)
FAMILIES = [
    ("chain", False, 1),
    ("recurrence", True, 1),
    ("sparse", True, SPARSE_TAU),
]
SPEEDUP_FLOOR = 5.0  # sparse family, largest n: event vs step wall clock
# SCP sweep: (family, loop-carried recurrence?) × sizes × pipeline depths,
# small enough that the step engine keeps `make bench` short
SCP_FAMILIES = [("chain", False), ("recurrence", True)]
SCP_SIZES = [4, 8, 16, 32]
SCP_STAGES = [4, 8]
# construction sweep: A-code recurrence chains, the stages that build
# and analyse graphs and nets, and their growth ceiling per doubling
# from the second-largest size to the largest
CONSTRUCTION_SIZES = [100, 200, 400, 800]
CONSTRUCTION_STAGES = ("translate", "rate_analysis", "build_pn")
CONSTRUCTION_GROWTH = 2.5
CONSTRUCTION_REPEATS = 3


def build(n: int, recurrence: bool, tau: int = 1):
    graph = translate(parse_loop(chain_source(n, recurrence))).graph
    pn = build_sdsp_pn(graph, include_io=False)
    timed = (
        pn.timed
        if tau == 1
        else TimedPetriNet(pn.net, {t: tau for t in pn.net.transition_names})
    )
    return pn, timed


def detect_both(pn, timed, policy_factory=None):
    """Frustum facts (asserted identical across engines), per-engine
    behavior-step counts, and per-engine wall clock."""
    facts = {}
    steps = {}
    wall = {}
    for engine in ENGINES:
        policy = policy_factory() if policy_factory is not None else None
        started = time.perf_counter()
        frustum, behavior = detect_frustum(
            timed, pn.initial, policy, engine=engine
        )
        wall[engine] = time.perf_counter() - started
        facts[engine] = (
            frustum.start_time,
            frustum.repeat_time,
            frustum.length,
            frustum.state,
            frustum.schedule_steps,
            tuple(sorted(frustum.firing_counts.items())),
        )
        steps[engine] = len(behavior.firings())
    assert facts["step"] == facts["event"], "engines disagree on the frustum"
    return facts["step"], steps, wall


def scp_rows():
    """One row per (family, n, depth) of the SCP sweep, with the
    per-engine wall clock of each."""
    rows = []
    walls = {}
    for family, recurrence in SCP_FAMILIES:
        for n in SCP_SIZES:
            pn, _ = build(n, recurrence)
            for stages in SCP_STAGES:
                scp = build_sdsp_scp_pn(pn, stages)
                (start, repeat, length, _, _, _), steps, wall = detect_both(
                    scp,
                    scp.timed,
                    lambda: FifoRunPlacePolicy(
                        scp.net, scp.run_place, scp.priority_order()
                    ),
                )
                walls[(family, n, stages)] = wall
                rows.append(
                    [
                        family,
                        n,
                        stages,
                        len(scp.net.transition_names),
                        start,
                        repeat,
                        length,
                        steps["step"],
                        steps["event"],
                    ]
                )
    return rows, walls


def engine_phases(walls, prefix=""):
    """Per-engine wall-clock totals as ``<prefix>engine.<name>``
    pseudo-phases for the volatile ``timing`` section."""
    phases = {}
    for engine in ENGINES:
        totals = [wall[engine] for wall in walls.values()]
        phases[f"{prefix}engine.{engine}"] = {
            "count": len(totals),
            "total": sum(totals),
            "mean": sum(totals) / len(totals),
        }
    return phases


def scaling_rows():
    rows = []
    walls = {}
    for family, recurrence, tau in FAMILIES:
        for n in SIZES:
            pn, timed = build(n, recurrence, tau)
            (start, repeat, length, _, _, _), steps, wall = detect_both(pn, timed)
            walls[(family, n)] = wall
            rows.append(
                [
                    family,
                    pn.size,
                    start,
                    repeat,
                    length,
                    Fraction(repeat, pn.size),
                    steps["step"],
                    steps["event"],
                ]
            )
    return rows, walls


def test_scaling_report(benchmark, phase_registry):
    benchmark.group = "reports"
    rows, walls = benchmark.pedantic(scaling_rows, rounds=1, iterations=1)
    scp, scp_walls = scp_rows()
    text = render_table(
        [
            "family",
            "n",
            "start",
            "repeat",
            "frustum len",
            "steps / n",
            "step ticks",
            "events",
        ],
        rows,
        title="Detection-time scaling (paper: O(n) in practice; both engines)",
    )
    scp_text = render_table(
        [
            "family",
            "n",
            "l",
            "transitions",
            "start",
            "repeat",
            "frustum len",
            "step ticks",
            "events",
        ],
        scp,
        title="SCP detection under the FIFO policy (both engines)",
    )
    save_artifact("scaling_detection.txt", text + "\n\n" + scp_text)

    # Per-engine wall clock is machine-dependent → volatile timing
    # section, as engine.<name> pseudo-phases next to the library's own
    # @timed phases.  The payload stays engine-independent by
    # construction (detect_both asserts the engines agree).
    save_json(
        "scaling_detection.json",
        {
            "bench": "scaling_detection",
            "sizes": SIZES,
            "engines": list(ENGINES),
            "sparse_tau": SPARSE_TAU,
            "rows": [
                {
                    "family": family,
                    "n": n,
                    "transient": start,
                    "repeat_time": repeat,
                    "frustum_length": length,
                    "steps_per_n": ratio,
                    "step_ticks": step_ticks,
                    "event_steps": event_steps,
                }
                for family, n, start, repeat, length, ratio,
                    step_ticks, event_steps in rows
            ],
            "scp_sizes": SCP_SIZES,
            "scp_stages": SCP_STAGES,
            "scp_rows": [
                {
                    "family": family,
                    "n": n,
                    "stages": stages,
                    "transitions": transitions,
                    "transient": start,
                    "repeat_time": repeat,
                    "frustum_length": length,
                    "step_ticks": step_ticks,
                    "event_steps": event_steps,
                }
                for family, n, stages, transitions, start, repeat, length,
                    step_ticks, event_steps in scp
            ],
        },
        phases={
            **engine_phases(walls),
            **engine_phases(scp_walls, prefix="scp."),
            **phase_timings(phase_registry),
        },
    )

    # Linear scaling: steps/n bounded by a small constant everywhere
    # (the sparse family's repeat time scales with τ, so its bound does
    # too — the *event count* is what stays τ-independent there).
    for family, _, tau in FAMILIES:
        bound = 4 * tau
        assert all(
            row[5] <= bound for row in rows if row[0] == family
        ), f"detection is not O(n) for family {family!r}"

    # The event engine never takes more steps than the stepper, and on
    # the sparse family it must skip the overwhelming majority of ticks.
    assert all(row[7] <= row[6] for row in rows)
    assert all(row[8] <= row[7] for row in scp)
    sparse_rows = [row for row in rows if row[0] == "sparse"]
    assert all(row[7] * 8 <= row[6] for row in sparse_rows)


def test_event_engine_speedup(benchmark, largest_sparse=SIZES[-1]):
    """The acceptance headline: ≥5× wall-clock win for the event engine
    on the sparse family at the largest size (median of 3 runs)."""
    pn, timed = build(largest_sparse, recurrence=True, tau=SPARSE_TAU)

    def measure(engine):
        samples = []
        for _ in range(3):
            started = time.perf_counter()
            detect_frustum(timed, pn.initial, engine=engine)
            samples.append(time.perf_counter() - started)
        return sorted(samples)[1]

    benchmark.group = "scaling: event engine speedup"
    step_wall = measure("step")
    event_wall = benchmark(lambda: measure("event"))
    speedup = step_wall / event_wall
    benchmark.extra_info["n"] = pn.size
    benchmark.extra_info["step_wall_s"] = round(step_wall, 6)
    benchmark.extra_info["event_wall_s"] = round(event_wall, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR, (
        f"event engine only {speedup:.1f}x faster than step engine "
        f"(need >= {SPEEDUP_FLOOR}x) at n={largest_sparse}, tau={SPARSE_TAU}"
    )


@pytest.mark.parametrize("n", [8, 32, 128])
@pytest.mark.parametrize("family", ["chain", "recurrence", "sparse"])
@pytest.mark.parametrize("engine", ENGINES)
def test_detection_scaling_speed(benchmark, n, family, engine):
    recurrence = family != "chain"
    tau = SPARSE_TAU if family == "sparse" else 1
    pn, timed = build(n, recurrence, tau)
    benchmark.group = f"scaling: frustum detection ({family})"
    frustum, _ = benchmark(
        lambda: detect_frustum(timed, pn.initial, engine=engine)
    )
    benchmark.extra_info["n"] = pn.size
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["repeat_time"] = frustum.repeat_time


def construction_row(n):
    """One A-code ``chain_source(n, recurrence=True)`` compiled cold
    :data:`CONSTRUCTION_REPEATS` times, with the cyclic GC off while
    timing: the payload's structure and rate, and each construction
    stage's fastest self time (seconds)."""
    request = make_request(chain_source(n, recurrence=True), include_io=True)
    best = {}
    for _ in range(CONSTRUCTION_REPEATS):
        manager = PassManager(request)
        gc.collect()
        gc.disable()
        try:
            manager.run()
        finally:
            gc.enable()
        for stage in CONSTRUCTION_STAGES:
            seconds = manager.timings[f"stage.{stage}"]
            best[stage] = min(best.get(stage, seconds), seconds)
    payload = manager.data("summarize")["payload"]
    row = {
        "n": n,
        "n_transitions": payload["n_transitions"],
        "net_size": payload["net_size"],
        "rate": payload["rate"],
    }
    return row, best


def test_scaling_construction(benchmark):
    """Construction is linear: from n = 400 to n = 800 each of the
    ``translate``, ``rate_analysis`` and ``build_pn`` self times grows
    at most :data:`CONSTRUCTION_GROWTH` times (a quadratic stage grows
    about 4 times)."""
    benchmark.group = "reports"
    measured = benchmark.pedantic(
        lambda: [construction_row(n) for n in CONSTRUCTION_SIZES],
        rounds=1,
        iterations=1,
    )
    rows = [row for row, _ in measured]
    times = {row["n"]: best for row, best in measured}
    save_json(
        "scaling_construction.json",
        {
            "bench": "scaling_construction",
            "loop": "chain_source(n, recurrence=True), A-code",
            "sizes": CONSTRUCTION_SIZES,
            "rows": rows,
        },
        phases={
            f"construction.{stage}.n{n}": {
                "count": 1,
                "total": best[stage],
                "mean": best[stage],
            }
            for n, best in times.items()
            for stage in CONSTRUCTION_STAGES
        },
    )
    small, large = CONSTRUCTION_SIZES[-2:]
    for stage in CONSTRUCTION_STAGES:
        growth = times[large][stage] / times[small][stage]
        benchmark.extra_info[f"{stage}_growth"] = round(growth, 2)
        assert growth <= CONSTRUCTION_GROWTH, (
            f"{stage} grew {growth:.1f}x from n={small} to n={large} "
            f"(ceiling {CONSTRUCTION_GROWTH}x): construction is not linear"
        )
