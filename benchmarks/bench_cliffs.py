"""Compile cliffs: single compiles that once took seconds.

tpnbench's compile-cold draw skips every item over 150 ms, so a compile
that falls off a cliff — work exponential or quadratic in the unrolled
net — can land with every throughput check green.  This bench compiles
those loops one at a time, exactly as a cold ``repro compile`` does
(one :class:`~repro.compiler.PassManager` run, no store):

* L2 (Fig. 2, one critical cycle) in abstract mode at
  ``U ∈ {1, 2, 4, 8, 12, 16}`` and in A-code at ``U ∈ {1, 4, 12}``;
* ``chain_source(16, recurrence=True)`` in A-code at ``U ∈ {1, 2}``
  (~30,000 simple cycles at U = 2);
* ``--unroll auto`` on A-code ``chain_source(16)``, which resolves to
  U = 17 through ``select_unroll``'s Howard run per candidate.

While the bounds enumerated every simple cycle of the unrolled net,
the L2 and recurrence cases took seconds (abstract L2 at U = 16:
14.9 s on a 2-vCPU VM); counting critical cycles in Howard's critical
graph takes them to milliseconds.  Cases that still take over ~2 s
join only with the change that brings them down, so ``make bench``
stays short.

The ``kind="bench"`` record's payload holds each case's rate, unroll
factor, transition count and critical-cycle count, which
``repro bench-check`` gates hard.  The volatile ``timing`` section
holds the per-stage self times ``PassManager`` reports, summed over the
cases (``stage.<name>``), and each case's whole compile
(``case.<id>``), which the gate checks softly.
"""

from __future__ import annotations

import pathlib

from benchmarks.conftest import save_json
from repro.batch.manifest import chain_source
from repro.compiler import PassManager, make_request

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
L2 = (EXAMPLES / "l2.loop").read_text(encoding="utf-8")

#: Every case but the auto one compiles well under this (~10–40 ms on
#: a 2-vCPU VM); enumerating the unrolled nets took up to 14.9 s.
CEILING_S = 1.0

#: (case id, loop source, A-code?, unroll)
CASES = [
    *((f"l2-abstract-u{u}", L2, False, u) for u in (1, 2, 4, 8, 12, 16)),
    *((f"l2-acode-u{u}", L2, True, u) for u in (1, 4, 12)),
    *(
        (f"recurrence16-acode-u{u}", chain_source(16, True), True, u)
        for u in (1, 2)
    ),
    ("chain16-acode-auto", chain_source(16, False), True, "auto"),
]


def compile_case(source: str, include_io: bool, unroll):
    """One cold compile: its payload and its ``PassManager`` timings."""
    manager = PassManager(
        make_request(source, include_io=include_io, unroll=unroll)
    )
    manager.run()
    return manager.data("summarize")["payload"], manager.timings


def phases(timings):
    """Stage self times summed over the cases, plus each case's total,
    as ``{"count", "total", "mean"}`` timing rows."""
    rows = {}
    for case, rows_of_case in timings.items():
        for name, seconds in rows_of_case.items():
            if name.startswith("stage."):
                rows.setdefault(name, []).append(seconds)
        rows[f"case.{case}"] = [rows_of_case["compile.total"]]
    return {
        name: {
            "count": len(values),
            "total": sum(values),
            "mean": sum(values) / len(values),
        }
        for name, values in rows.items()
    }


def test_compile_cliffs(benchmark):
    benchmark.group = "reports"

    def build():
        cases, timings = [], {}
        for case, source, include_io, unroll in CASES:
            payload, timings[case] = compile_case(source, include_io, unroll)
            cases.append(
                {
                    "case": case,
                    "loop": payload["loop"],
                    "include_io": include_io,
                    "requested_unroll": unroll,
                    "unroll": payload["unroll"],
                    "rate": payload["rate"],
                    "n_transitions": payload["n_transitions"],
                    "critical_cycle_count": (
                        payload["bounds"]["critical_cycle_count"]
                    ),
                }
            )
        return cases, timings

    cases, timings = benchmark.pedantic(build, rounds=1, iterations=1)
    save_json(
        "cliffs.json",
        {"bench": "cliffs", "cases": cases},
        phases=phases(timings),
    )

    by_case = {case["case"]: case for case in cases}
    # L2 keeps its single critical cycle C -> D -> E at every factor
    for case in cases:
        if case["loop"] == "L2":
            assert case["critical_cycle_count"] == 1, case
    assert by_case["chain16-acode-auto"]["unroll"] == 17
    for case, rows in timings.items():
        benchmark.extra_info[f"{case}_s"] = round(rows["compile.total"], 6)
        if case != "chain16-acode-auto":
            assert rows["compile.total"] < CEILING_S, (case, rows)
