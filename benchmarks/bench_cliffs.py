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

It also runs the report commands on the 3×9 grid loop
(:func:`~repro.batch.manifest.grid_source`, A-code), in process
through ``repro.cli.main``: ``analyze``, ``explain --json``, ``dash``
and ``storage``.  The grid's net has 666,712 node cycles, nearly all of
them critical; while those commands enumerated them, ``analyze`` and
``explain`` took ~25 s, ``dash`` ~33 s and ``storage`` over 120 s on a
2-vCPU VM.  Reading Howard's critical graph and potentials instead,
each must finish under :data:`REPORT_CEILING_S`.

The ``kind="bench"`` record's payload holds each case's rate, unroll
factor, transition count and critical-cycle count, and the grid's
listed critical-cycle count, capped flag, storage locations and
balanced buffer total, which ``repro bench-check`` gates hard.  The
volatile ``timing`` section holds the per-stage self times
``PassManager`` reports, summed over the cases (``stage.<name>``),
each case's whole compile (``case.<id>``) and each report command's
wall time (``report.<command>``), which the gate checks softly.
"""

from __future__ import annotations

import io
import json
import pathlib
import re
import time

from benchmarks.conftest import save_json
from repro.batch.manifest import chain_source, grid_source
from repro.cli import main
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


#: Each report command on the 3×9 grid loop, compile included, runs in
#: well under this (the first ``storage`` also imports scipy).
REPORT_CEILING_S = 2.0


def run_command(*argv: str):
    """One in-process CLI run: its stdout and its wall time."""
    out = io.StringIO()
    start = time.perf_counter()
    status = main(list(argv), out=out)
    elapsed = time.perf_counter() - start
    assert status == 0, argv
    return out.getvalue(), elapsed


def grid_reports(directory: pathlib.Path):
    """``analyze``, ``explain --json``, ``dash`` and ``storage`` on the
    3×9 grid loop: the facts they print and each command's wall time."""
    loop = directory / "grid3x9.loop"
    loop.write_text(grid_source(3, 9), encoding="utf-8")
    seconds = {}
    analyze, seconds["analyze"] = run_command("analyze", str(loop))
    explain, seconds["explain"] = run_command("explain", str(loop), "--json")
    _, seconds["dash"] = run_command(
        "dash", str(loop), "-o", str(directory / "grid.html"),
        "--history", str(directory / "no-history.jsonl"),
    )
    storage, seconds["storage"] = run_command("storage", str(loop))
    structural = json.loads(explain)["structural"]
    locations = re.search(r"storage locations: (\d+) -> (\d+)", storage)
    balance = re.search(r"(\d+) total slots", storage)
    facts = {
        "loop": "grid3x9",
        "critical_cycles": len(structural["critical_cycles"])
        + len(structural["critical_self_loops"]),
        "critical_cycles_capped": structural.get(
            "critical_cycles_capped", False
        ),
        "analyze_says_capped": "listing capped at" in analyze,
        "storage_locations": [int(locations[1]), int(locations[2])],
        "balance_total": int(balance[1]),
    }
    return facts, seconds


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


def test_compile_cliffs(benchmark, tmp_path):
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
        return cases, timings, grid_reports(tmp_path)

    cases, timings, (reports, seconds) = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    rows = phases(timings)
    for command, elapsed in seconds.items():
        rows[f"report.{command}"] = {
            "count": 1, "total": elapsed, "mean": elapsed,
        }
    save_json(
        "cliffs.json",
        {"bench": "cliffs", "cases": cases, "grid_reports": reports},
        phases=rows,
    )

    by_case = {case["case"]: case for case in cases}
    # L2 keeps its single critical cycle C -> D -> E at every factor
    for case in cases:
        if case["loop"] == "L2":
            assert case["critical_cycle_count"] == 1, case
    assert by_case["chain16-acode-auto"]["unroll"] == 17
    for case, rows_of_case in timings.items():
        benchmark.extra_info[f"{case}_s"] = round(rows_of_case["compile.total"], 6)
        if case != "chain16-acode-auto":
            assert rows_of_case["compile.total"] < CEILING_S, (case, rows_of_case)
    # the grid's critical graph is its whole net: the listing stops at
    # the budget, and both reports say so
    assert reports["critical_cycles_capped"] and reports["analyze_says_capped"]
    for command, elapsed in seconds.items():
        benchmark.extra_info[f"grid3x9-{command}_s"] = round(elapsed, 6)
        assert elapsed < REPORT_CEILING_S, (command, elapsed)
