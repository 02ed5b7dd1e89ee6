"""No command enumerates a net's cycles.

Every cycle-time question is answered from the net's one Howard run:
the compile's bounds count critical cycles in its critical graph,
``repro analyze`` and ``repro explain`` list them there, the dash's
slack runs Dijkstra over Howard's potentials, and ``repro storage``
re-runs Howard on each rebuilt net.  Whole-net enumeration
(:meth:`~repro.petrinet.MarkedGraphView.simple_cycles`,
:func:`~repro.petrinet.critical_cycle_report` and
:func:`~repro.petrinet.cycle_time_by_enumeration`) is left to the test
oracles, and the baselines' networkx-backed dependence graph to the
baseline schedulers.  With all of them made to raise or fail to import,
every example must still compile — including abstract L2 at U = 16,
whose enumeration took seconds — and the four commands must run on the
examples and on the 3×9 grid loop, whose net has 666,712 node cycles.
"""

from __future__ import annotations

import io
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro.pipeline  # noqa: F401  (binds the compile path's imports)
from repro.batch.manifest import grid_source
from repro.cli import main
from repro.core import CRITICAL_CYCLE_BUDGET
from repro.petrinet import MarkedGraphView, analysis
from repro.pipeline import compile_loop

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
LOOPS = ("l1", "l2", "interleave", "frac5")
BASELINES = ROOT / "src" / "repro" / "baselines"


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make whole-net cycle enumeration raise wherever it is bound, and
    every ``repro.baselines`` module fail to import."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a command enumerated a net's cycles")

    monkeypatch.setattr(MarkedGraphView, "simple_cycles", forbidden)
    for oracle in ("critical_cycle_report", "cycle_time_by_enumeration"):
        original = getattr(analysis, oracle)
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] != "repro":
                continue
            if vars(module).get(oracle) is original:
                monkeypatch.setattr(module, oracle, forbidden)
    blocked = ["repro.baselines"] + [
        f"repro.baselines.{info.name}" for info in pkgutil.iter_modules([str(BASELINES)])
    ]
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)


@pytest.mark.parametrize("stages", [None, 4])
@pytest.mark.parametrize("unroll", [1, 2, 4, 16])
@pytest.mark.parametrize("loop", LOOPS)
def test_examples_compile_without_enumeration(
    no_enumeration, loop, unroll, stages
):
    source = (EXAMPLES / f"{loop}.loop").read_text(encoding="utf-8")
    compiled = compile_loop(
        source, include_io=False, unroll=unroll, pipeline_stages=stages
    )
    assert compiled.bounds.critical_cycle_count >= 1
    assert not compiled.bounds.critical_cycle_count_capped


def test_baselines_are_blocked(no_enumeration):
    with pytest.raises(ImportError):
        from repro.baselines.depgraph import DependenceGraph  # noqa: F401


def run(*argv: str) -> str:
    out = io.StringIO()
    assert main(list(argv), out=out) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def grid_loop(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "grid3x9.loop"
    path.write_text(grid_source(3, 9), encoding="utf-8")
    return path


@pytest.mark.parametrize("mode", [[], ["--abstract"]], ids=["acode", "abstract"])
@pytest.mark.parametrize("loop", LOOPS + ("grid3x9",))
def test_commands_run_without_enumeration(
    no_enumeration, tmp_path, grid_loop, loop, mode
):
    path = grid_loop if loop == "grid3x9" else EXAMPLES / f"{loop}.loop"
    analyze = run("analyze", str(path), *mode)
    run("explain", str(path), *mode)
    structural = json.loads(run("explain", str(path), *mode, "--json"))[
        "structural"
    ]
    dash = tmp_path / "dash.html"
    run(
        "dash", str(path), *mode, "-o", str(dash),
        "--history", str(tmp_path / "no-history.jsonl"),
    )
    assert "0 (critical)" in dash.read_text(encoding="utf-8")
    assert "cycle time preserved at" in run("storage", str(path), *mode)

    # the grid's critical graph is its whole net: the listing stops at
    # the budget and says so; the examples' listings are whole
    capped = loop == "grid3x9"
    listed = len(structural["critical_cycles"]) + len(
        structural["critical_self_loops"]
    )
    assert structural.get("critical_cycles_capped", False) == capped
    assert ("listing capped at" in analyze) == capped
    assert (listed == CRITICAL_CYCLE_BUDGET) if capped else (listed >= 1)


def test_storage_does_not_load_networkx():
    """The balance target is Howard's, so ``repro storage`` needs
    scipy (for the LP) and nothing from the baselines."""
    code = (
        "import io, sys\n"
        "from repro.cli import main\n"
        f"assert main(['storage', {str(EXAMPLES / 'l2.loop')!r}], out=io.StringIO()) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
        "('networkx', 'repro') and (m == 'networkx' or m.startswith('repro.baselines'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
