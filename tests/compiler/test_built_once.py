"""Each compile builds its SDSP-PN once and validates its graph once.

The SDSP-PN is built as an edge table in one pass and turned into one
``PetriNet``; the dependence bound (``rate_analysis``) and every
``--unroll auto`` candidate (``select_unroll``) run Howard on tables,
so they build no net.  The ``translate`` stage validates the graph,
and unrolling keeps it valid, so no later stage validates again.
"""

from __future__ import annotations

import importlib
import pathlib

import pytest

from repro.compiler.manager import PassManager, make_request
from repro.petrinet.net import PetriNet

# the module, which the package's lazy ``validate`` export shadows
validate_module = importlib.import_module("repro.dataflow.validate")

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
LOOPS = ("l1", "l2", "frac5", "interleave")


@pytest.fixture
def counts(monkeypatch):
    """Nets built and graphs validated, each tagged with the stage the
    pass manager was running."""
    seen = {"nets": [], "validations": []}
    manager_of = {}

    init = PetriNet.__init__

    def record_net(net, *args, **kwargs):
        init(net, *args, **kwargs)
        seen["nets"].append((manager_of.get("stage"), net))

    validate = validate_module.validate

    def record_validation(graph):
        seen["validations"].append(manager_of.get("stage"))
        return validate(graph)

    resolve = PassManager._resolve

    def track_stage(manager, stage):
        outer = manager_of.get("stage")
        manager_of["stage"] = stage.name
        try:
            return resolve(manager, stage)
        finally:
            manager_of["stage"] = outer

    monkeypatch.setattr(PetriNet, "__init__", record_net)
    monkeypatch.setattr(validate_module, "validate", record_validation)
    monkeypatch.setattr(PassManager, "_resolve", track_stage)
    return seen


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("unroll", [1, 2, "auto"])
@pytest.mark.parametrize("depth", [None, 4])
def test_one_net_and_one_validation_per_compile(counts, loop, unroll, depth):
    source = (EXAMPLES / f"{loop}.loop").read_text(encoding="utf-8")
    request = make_request(
        source, include_io=False, unroll=unroll, pipeline_stages=depth
    )
    PassManager(request).run()

    stages = [stage for stage, _ in counts["nets"]]
    assert stages == (["build_pn"] if depth is None else ["build_pn", "scp_build"])
    assert counts["validations"] == ["translate"]
