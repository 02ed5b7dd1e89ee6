"""The compile path counts critical cycles without enumerating a net.

``theoretical_bounds`` (the ``rate`` stage) counts critical cycles in
Howard's critical graph; whole-net enumeration
(:meth:`~repro.petrinet.MarkedGraphView.simple_cycles` and
:func:`~repro.petrinet.critical_cycle_report`) is left to the test
oracles, ``critical_cycles``' listing, the dash and storage.  With both
made to raise, every example must still compile — including abstract
L2 at U = 16, whose enumeration took seconds.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

import repro.pipeline  # noqa: F401  (binds the compile path's imports)
from repro.petrinet import MarkedGraphView, analysis
from repro.pipeline import compile_loop

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
LOOPS = ("l1", "l2", "interleave", "frac5")


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make whole-net cycle enumeration raise wherever it is bound."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the compile path enumerated a net's cycles")

    monkeypatch.setattr(MarkedGraphView, "simple_cycles", forbidden)
    original = analysis.critical_cycle_report
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "repro":
            continue
        if vars(module).get("critical_cycle_report") is original:
            monkeypatch.setattr(module, "critical_cycle_report", forbidden)


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
