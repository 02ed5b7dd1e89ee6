"""Schedule verification: what the periodic certificate checks, and
what it costs.

A derived schedule is a prologue plus a kernel that repeats forever
(§3.3, Fig. 1(g)); ``verify_schedule`` proves it for every iteration by
checking each place up to one kernel past both prologues and counting
SCP issues over the prologue's cycles plus the kernel's slots modulo
II (``repro.core.verify``).  This bench runs that check on the
examples' schedules — ``examples/{l1,l2,interleave,frac5}.loop`` at
``U ∈ {1, 2, 4, 8}`` — exactly as the compiler's stages do: the ideal
schedule against dependences and the optimal rate (``verify``), and
the schedules for a 4- and an 8-stage clean pipeline against pipeline
latencies and one issue per cycle (``scp_verify``).

The ``kind="bench"`` record's payload holds each case's verdict and
its ``checked_constraints``.  The counts are a deterministic function
of the schedules, so ``repro bench-check`` fails hard if verification
goes back to replaying a fixed horizon or to any other check count.
The volatile ``timing`` section holds the ``core.verify_schedule``
wall time.
"""

from __future__ import annotations

import pathlib

from benchmarks.conftest import phase_timings, save_json
from repro import compile_loop
from repro.core import verify_schedule

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
LOOPS = ("l1", "l2", "interleave", "frac5")
UNROLLS = (1, 2, 4, 8)
PIPELINES = (None, 4, 8)


def verify_case(source: str, unroll: int, stages) -> dict:
    """Compile without the verify stages, then verify as they would."""
    compiled = compile_loop(
        source, unroll=unroll, pipeline_stages=stages, verify=False
    )
    if stages is None:
        report = verify_schedule(
            compiled.pn, compiled.schedule, expected_rate=compiled.rate
        )
    else:
        report = verify_schedule(
            compiled.pn,
            compiled.scp_schedule,
            capacity=1,
            latency_of=lambda t: stages,
        )
    return {
        "verified": report.ok,
        "checked_constraints": report.checked_constraints,
    }


def test_verify_certificate(benchmark, phase_registry):
    benchmark.group = "reports"

    def build():
        cases = []
        for loop in LOOPS:
            source = (EXAMPLES / f"{loop}.loop").read_text(encoding="utf-8")
            for unroll in UNROLLS:
                for stages in PIPELINES:
                    case = verify_case(source, unroll, stages)
                    case.update(loop=loop, unroll=unroll, scp=stages)
                    cases.append(case)
        return cases

    cases = benchmark.pedantic(build, rounds=1, iterations=1)
    timers = phase_timings(phase_registry)
    save_json(
        "verify.json",
        {"bench": "verify", "cases": cases},
        phases={"core.verify_schedule": timers["core.verify_schedule"]},
    )

    assert len(cases) == len(LOOPS) * len(UNROLLS) * len(PIPELINES)
    assert all(case["verified"] for case in cases), [
        case for case in cases if not case["verified"]
    ]
    benchmark.extra_info["checked_constraints"] = sum(
        case["checked_constraints"] for case in cases
    )
    benchmark.extra_info["verify_s"] = round(
        timers["core.verify_schedule"]["total"], 6
    )
