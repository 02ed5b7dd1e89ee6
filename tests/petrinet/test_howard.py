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

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.petrinet import Marking, MarkedGraphView, PetriNet, howard_analysis
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
