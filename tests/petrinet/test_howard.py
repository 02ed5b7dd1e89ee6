"""Integer Howard against its ``Fraction`` reference.

:func:`repro.petrinet.howard_analysis` compares gains by
cross-multiplying reduced integer pairs and keeps values scaled by
their gain's denominator.  The reference in
``tests/petrinet/howard_reference.py`` runs the same policy iteration
in exact ``Fraction`` arithmetic.  On every generated timed marked
graph the two must return the same :class:`HowardResult` — cycle time,
witness cycle, witness self-loop, iteration count and the tight edges
the critical-cycle count reads — so the witness ``repro explain``
reports and the bounds' count cannot drift.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import build_sdsp_pn, critical_cycles
from repro.errors import AnalysisError
from repro.loops import parse_loop, translate, unroll_graph
from repro.petrinet import (
    Marking,
    MarkedGraphView,
    PetriNet,
    check_certificate,
    cycle_time_by_enumeration,
    howard_analysis,
)
from tests.petrinet.howard_reference import howard_analysis_fraction


@st.composite
def timed_marked_graphs(draw):
    """A ring through every transition plus random chords and
    self-places, with 0–3 tokens per place (some draws are not live),
    and unit or random execution times."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = [f"t{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges += draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            max_size=2 * n,
        )
    )
    net = PetriNet(name="generated")
    for name in names:
        net.add_transition(name)
    tokens = {}
    for index, (producer, consumer) in enumerate(edges):
        place = f"p{index}"
        net.add_place(place)
        net.add_arc(producer, place)
        net.add_arc(place, consumer)
        tokens[place] = draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        durations = {name: 1 for name in names}
    else:
        durations = {
            name: draw(st.integers(min_value=1, max_value=12)) for name in names
        }
    return MarkedGraphView(net, Marking(tokens)), durations


def outcome(analysis, view, durations):
    try:
        return analysis(view, durations)
    except AnalysisError as error:
        return ("error", str(error))


class TestIntegerHoward:
    @settings(max_examples=300, deadline=None)
    @given(graph=timed_marked_graphs())
    def test_matches_the_fraction_reference(self, graph):
        view, durations = graph
        assert outcome(howard_analysis, view, durations) == outcome(
            howard_analysis_fraction, view, durations
        )


def live_result(graph):
    view, durations = graph
    try:
        return view, durations, howard_analysis(view, durations)
    except AnalysisError:
        assume(False)


class TestCertificate:
    """:func:`check_certificate` re-checks Howard's optimality
    inequalities against the net; it must accept every converged
    result and reject a perturbed one, so it cannot pass vacuously."""

    @settings(max_examples=200, deadline=None)
    @given(graph=timed_marked_graphs())
    def test_accepts_the_converged_potentials(self, graph):
        check_certificate(*live_result(graph))

    @settings(max_examples=200, deadline=None)
    @given(graph=timed_marked_graphs())
    def test_rejects_a_wrong_cycle_time(self, graph):
        view, durations, result = live_result(graph)
        for wrong in (result.cycle_time + 1, result.cycle_time / 2):
            with pytest.raises(AnalysisError, match="largest gain"):
                check_certificate(
                    view, durations, dataclasses.replace(result, cycle_time=wrong)
                )

    @settings(max_examples=200, deadline=None)
    @given(graph=timed_marked_graphs())
    def test_rejects_a_perturbed_value(self, graph):
        """Lowering the value at the tail of a tight place edge breaks
        that edge's inequality."""
        view, durations, result = live_result(graph)
        tight = [
            (u, v) for u, v, place in result.tight_edges
            if place is not None and u != v
        ]
        assume(tight)
        producer = tight[0][0]
        values = dict(result.values)
        values[producer] -= 1
        with pytest.raises(AnalysisError, match="value inequality"):
            check_certificate(
                view, durations, dataclasses.replace(result, values=values)
            )

    def test_critical_cycles_checks_the_certificate(self, l2_pn_abstract):
        pn = l2_pn_abstract
        pn.__dict__["howard"] = dataclasses.replace(
            pn.howard, cycle_time=Fraction(2)
        )
        with pytest.raises(AnalysisError, match="Howard certificate fails"):
            critical_cycles(pn)


def test_converges_where_a_kept_cycle_moves_its_anchor():
    """A bias step that keeps a policy cycle but enters it at another
    node must keep that cycle's values; re-anchoring them at 0 made the
    policy iteration alternate between two policies for ever on this
    unrolled loop (abstract mode, U = 3 and 4)."""
    source = (
        "do fuzz:\n"
        "  T0[i] = (IN0[i] + T0[i-1])\n"
        "  T1[i] = (IN0[i] + T0[i])\n"
        "  T2[i] = (((IN0[i] + T1[i]) + T0[i]) + T0[i-1])\n"
        "  T3[i] = (((IN0[i] + T2[i]) + T1[i]) + 1)"
    )
    graph = translate(parse_loop(source)).graph
    for factor in (3, 4):
        pn = build_sdsp_pn(unroll_graph(graph, factor), include_io=False)
        result = howard_analysis(pn.view(), pn.durations)
        assert result.cycle_time == cycle_time_by_enumeration(
            pn.view(), pn.durations
        )
        assert result.iterations < 20
