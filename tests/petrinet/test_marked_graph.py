"""Marked-graph theory: cycle enumeration and Theorems A.5.1–A.5.3."""

from fractions import Fraction

import pytest

from repro.errors import NotAMarkedGraphError
from repro.petrinet import (
    Marking,
    MarkedGraphView,
    PetriNet,
    SimpleCycle,
    edge_table,
    fire,
    require_marked_graph,
)


def triangle_net(tokens):
    """Three transitions in a cycle; ``tokens`` on the closing place."""
    net = PetriNet("triangle")
    for name in ("a", "b", "c"):
        net.add_transition(name)
    net.add_place("ab")
    net.add_place("bc")
    net.add_place("ca")
    net.add_arc("a", "ab")
    net.add_arc("ab", "b")
    net.add_arc("b", "bc")
    net.add_arc("bc", "c")
    net.add_arc("c", "ca")
    net.add_arc("ca", "a")
    return net, Marking({"ca": tokens})


class TestRecognition:
    def test_require_marked_graph_accepts(self, pair_net):
        net, _ = pair_net
        require_marked_graph(net)  # no raise

    def test_require_marked_graph_rejects_shared_place(self):
        net = PetriNet()
        net.add_place("shared")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("shared", "t1")
        net.add_arc("shared", "t2")
        net.add_arc("t1", "shared")
        with pytest.raises(NotAMarkedGraphError, match="shared"):
            require_marked_graph(net)

    def test_view_rejects_non_marked_graph(self):
        net = PetriNet()
        net.add_place("orphan")
        net.add_transition("t")
        net.add_arc("orphan", "t")
        with pytest.raises(NotAMarkedGraphError):
            MarkedGraphView(net, Marking({}))


class TestCycles:
    def test_triangle_has_one_cycle(self):
        net, initial = triangle_net(1)
        view = MarkedGraphView(net, initial)
        cycles = view.simple_cycles()
        assert len(cycles) == 1
        assert set(cycles[0].transitions) == {"a", "b", "c"}
        assert set(cycles[0].places) == {"ab", "bc", "ca"}

    def test_cycle_metrics(self):
        net, initial = triangle_net(1)
        view = MarkedGraphView(net, initial)
        (cycle,) = view.simple_cycles()
        assert cycle.token_sum(initial) == 1
        assert cycle.value_sum({"a": 1, "b": 2, "c": 3}) == 6
        assert cycle.cycle_time(initial, {"a": 1, "b": 1, "c": 1}) == 3
        assert cycle.balancing_ratio(initial) == Fraction(1, 3)

    def test_parallel_places_give_distinct_cycles(self):
        net = PetriNet()
        net.add_transition("u")
        net.add_transition("v")
        net.add_place("fwd1")
        net.add_place("fwd2")
        net.add_place("back")
        for p in ("fwd1", "fwd2"):
            net.add_arc("u", p)
            net.add_arc(p, "v")
        net.add_arc("v", "back")
        net.add_arc("back", "u")
        view = MarkedGraphView(net, Marking({"back": 1}))
        assert len(view.simple_cycles()) == 2

    def test_l1_pn_cycle_count(self, l1_pn_abstract):
        # Each data/ack pair is a 2-cycle (5 of them) plus composite
        # data-path/ack-return cycles.
        view = l1_pn_abstract.view()
        pair_cycles = [c for c in view.simple_cycles() if len(c) == 2]
        assert len(pair_cycles) >= 5


class TestTheorems:
    def test_theorem_a51_live_iff_cycles_tokened(self):
        net, initial = triangle_net(1)
        assert MarkedGraphView(net, initial).is_live()
        net2, empty = triangle_net(0)
        view2 = MarkedGraphView(net2, empty)
        assert not view2.is_live()
        assert view2.token_free_cycle() == SimpleCycle(
            ("a", "b", "c"), ("ab", "bc", "ca")
        )

    def test_theorem_a52_safety(self):
        net, one = triangle_net(1)
        assert MarkedGraphView(net, one).is_safe()
        net2, two = triangle_net(2)
        view2 = MarkedGraphView(net2, two)
        assert not view2.is_safe()
        assert set(view2.unsafe_places()) == {"ab", "bc", "ca"}

    def test_token_count_invariant_under_firing(self):
        net, initial = triangle_net(1)
        view = MarkedGraphView(net, initial)
        marking = initial
        for _ in range(5):
            transition = next(
                t
                for t in net.transition_names
                if all(marking[p] for p in net.input_places(t))
            )
            marking = fire(net, marking, transition)
            assert view.token_count_invariant(marking)

    def test_token_count_invariant_detects_corruption(self):
        net, initial = triangle_net(1)
        view = MarkedGraphView(net, initial)
        assert not view.token_count_invariant(Marking({"ca": 2}))

    def test_strongly_connected(self):
        net, initial = triangle_net(1)
        assert MarkedGraphView(net, initial).is_strongly_connected()

    def test_not_strongly_connected(self):
        net = PetriNet()
        net.add_transition("u")
        net.add_transition("v")
        net.add_place("p")
        net.add_arc("u", "p")
        net.add_arc("p", "v")
        assert not MarkedGraphView(net, Marking({})).is_strongly_connected()

    def test_l1_pn_live_and_safe_by_theorems(self, l1_pn_abstract):
        view = l1_pn_abstract.view()
        assert view.is_live()
        assert view.is_safe()

    def test_l2_pn_live_and_safe_by_theorems(self, l2_pn_abstract):
        view = l2_pn_abstract.view()
        assert view.is_live()
        assert view.is_safe()


class TestEdgeTable:
    def test_one_row_per_place_in_net_order(self):
        net, marking = triangle_net(2)
        assert edge_table(net, marking) == (
            ("ab", "a", "b", 0),
            ("bc", "b", "c", 0),
            ("ca", "c", "a", 2),
        )

    def test_rejects_a_shared_place(self):
        net = PetriNet()
        for name in ("a", "b", "c"):
            net.add_transition(name)
        net.add_place("p")
        net.add_arc("a", "p")
        net.add_arc("p", "b")
        net.add_arc("p", "c")
        with pytest.raises(NotAMarkedGraphError, match="'p' has 1 producers and 2"):
            edge_table(net, {})
        with pytest.raises(NotAMarkedGraphError):
            MarkedGraphView(net, Marking({}))

    @pytest.mark.parametrize("tokens", [0, 1, 2])
    def test_view_reads_a_given_table(self, tokens):
        net, marking = triangle_net(tokens)
        derived = MarkedGraphView(net, marking)
        given = MarkedGraphView(net, marking, edge_table(net, marking))
        assert given.edges == derived.edges
        assert given.token_free_cycle() == derived.token_free_cycle()
        assert given.unsafe_places() == derived.unsafe_places()
