"""Shared fixtures: the paper's example loops and common nets."""

from __future__ import annotations

import pytest

from repro.core import build_sdsp_pn
from repro.dataflow import GraphBuilder
from repro.loops import parse_loop, translate

L1_SOURCE = """
doall L1:
    A[i] = X[i] + 5
    B[i] = Y[i] + A[i]
    C[i] = A[i] + Z[i]
    D[i] = B[i] + C[i]
    E[i] = W[i] + D[i]
"""

L2_SOURCE = """
do L2:
    A[i] = X[i] + 5
    B[i] = Y[i] + A[i]
    C[i] = A[i] + E[i-1]
    D[i] = B[i] + C[i]
    E[i] = W[i] + D[i]
"""


def assert_view_matches_live(summary, compiled):
    """The parsed payload view (``CompiledLoopSummary``) agrees with the
    live ``CompiledLoop`` objects of the compile that produced it."""
    assert summary.loop == compiled.translation.loop.name
    assert summary.engine == compiled.engine
    assert summary.include_io == compiled.include_io
    assert summary.net_size == compiled.pn.size
    assert summary.n_transitions == len(compiled.pn.net.transition_names)
    assert summary.rate == compiled.rate
    assert summary.cycle_time == 1 / compiled.rate
    assert summary.bounds == compiled.bounds
    assert summary.unroll == compiled.unroll
    assert summary.achieved_rate == compiled.achieved_rate
    assert summary.dependence_bound == compiled.dependence_bound
    assert summary.schedule == compiled.schedule
    frusta = [(summary.frustum, compiled.frustum)]
    if compiled.scp is None:
        assert summary.scp_schedule is None
    else:
        assert summary.scp_schedule == compiled.scp_schedule
        assert summary.scp_utilization == compiled.scp_utilization
        frusta.append((summary.scp_frustum, compiled.scp_frustum))
    for parsed, live in frusta:
        assert parsed.start_time == live.start_time
        assert parsed.repeat_time == live.repeat_time
        assert parsed.length == live.length
        assert parsed.firing_counts == dict(live.firing_counts)
        assert list(parsed.schedule_steps) == [
            (time, tuple(fired)) for time, fired in live.schedule_steps
        ]


@pytest.fixture
def l1_loop():
    return parse_loop(L1_SOURCE)


@pytest.fixture
def l2_loop():
    return parse_loop(L2_SOURCE)


@pytest.fixture
def l1_graph(l1_loop):
    return translate(l1_loop).graph


@pytest.fixture
def l2_graph(l2_loop):
    return translate(l2_loop).graph


@pytest.fixture
def l1_pn_abstract(l1_graph):
    """Figure 1(d): 5 transitions A..E, 10 places."""
    return build_sdsp_pn(l1_graph, include_io=False)


@pytest.fixture
def l2_pn_abstract(l2_graph):
    """Figure 2(d): 5 transitions, feedback E -> C."""
    return build_sdsp_pn(l2_graph, include_io=False)


@pytest.fixture
def l1_pn_full(l1_graph):
    """A-code mode: loads/stores are instructions too."""
    return build_sdsp_pn(l1_graph)


def build_two_transition_cycle():
    """The smallest live safe marked graph: t1 <-> t2 with one token."""
    from repro.petrinet import Marking, PetriNet

    net = PetriNet("pair")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_place("p12")
    net.add_place("p21")
    net.add_arc("t1", "p12")
    net.add_arc("p12", "t2")
    net.add_arc("t2", "p21")
    net.add_arc("p21", "t1")
    return net, Marking({"p21": 1})


@pytest.fixture
def pair_net():
    return build_two_transition_cycle()
