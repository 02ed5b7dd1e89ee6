"""Structural Petri-net construction and queries."""

import pytest

from repro.errors import NetConstructionError
from repro.petrinet import PetriNet


@pytest.fixture
def simple_net():
    net = PetriNet("simple")
    net.add_place("p1")
    net.add_place("p2")
    net.add_transition("t1")
    net.add_arc("p1", "t1")
    net.add_arc("t1", "p2")
    return net


class TestConstruction:
    def test_add_place_returns_place(self):
        net = PetriNet()
        place = net.add_place("p", annotation="data")
        assert place.name == "p"
        assert place.annotation == "data"

    def test_add_transition_returns_transition(self):
        net = PetriNet()
        transition = net.add_transition("t", annotation="sdsp")
        assert transition.name == "t"
        assert transition.annotation == "sdsp"

    def test_duplicate_place_name_rejected(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(NetConstructionError, match="already used"):
            net.add_place("x")

    def test_place_transition_namespaces_are_shared(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(NetConstructionError, match="already used"):
            net.add_transition("x")

    def test_empty_name_rejected(self):
        net = PetriNet()
        with pytest.raises(NetConstructionError, match="empty"):
            net.add_place("")

    def test_arc_direction_inferred(self, simple_net):
        assert ("p1", "t1") in simple_net.arcs
        assert ("t1", "p2") in simple_net.arcs

    def test_arc_between_places_rejected(self):
        net = PetriNet()
        net.add_place("p1")
        net.add_place("p2")
        with pytest.raises(NetConstructionError, match="two places"):
            net.add_arc("p1", "p2")

    def test_arc_between_transitions_rejected(self):
        net = PetriNet()
        net.add_transition("t1")
        net.add_transition("t2")
        with pytest.raises(NetConstructionError, match="two transitions"):
            net.add_arc("t1", "t2")

    def test_arc_with_unknown_endpoint_rejected(self):
        net = PetriNet()
        net.add_place("p")
        with pytest.raises(NetConstructionError, match="unknown"):
            net.add_arc("p", "ghost")

    def test_duplicate_arc_rejected(self, simple_net):
        with pytest.raises(NetConstructionError, match="duplicate"):
            simple_net.add_arc("p1", "t1")

    def test_remove_arc(self, simple_net):
        simple_net.remove_arc("p1", "t1")
        assert ("p1", "t1") not in simple_net.arcs
        assert simple_net.input_places("t1") == ()

    def test_remove_missing_arc_rejected(self, simple_net):
        with pytest.raises(NetConstructionError, match="no arc"):
            simple_net.remove_arc("p2", "t1")

    def test_remove_place_drops_arcs(self, simple_net):
        simple_net.remove_place("p1")
        assert not simple_net.has_place("p1")
        assert simple_net.input_places("t1") == ()


class TestQueries:
    def test_dot_notation_preset_postset(self, simple_net):
        assert simple_net.preset("t1") == ("p1",)
        assert simple_net.postset("t1") == ("p2",)
        assert simple_net.preset("p2") == ("t1",)
        assert simple_net.postset("p1") == ("t1",)

    def test_preset_unknown_node(self, simple_net):
        with pytest.raises(NetConstructionError):
            simple_net.preset("nope")

    def test_contains(self, simple_net):
        assert "p1" in simple_net
        assert "t1" in simple_net
        assert "zz" not in simple_net

    def test_place_accessor_raises_on_unknown(self, simple_net):
        with pytest.raises(NetConstructionError):
            simple_net.place("t1")

    def test_transition_accessor(self, simple_net):
        assert simple_net.transition("t1").name == "t1"

    def test_input_output_places(self, simple_net):
        assert simple_net.input_places("t1") == ("p1",)
        assert simple_net.output_places("t1") == ("p2",)

    def test_input_output_transitions(self, simple_net):
        assert simple_net.input_transitions("p2") == ("t1",)
        assert simple_net.output_transitions("p1") == ("t1",)


class TestDerivedStructure:
    def test_is_marked_graph_true(self, pair_net):
        net, _ = pair_net
        assert net.is_marked_graph()

    def test_is_marked_graph_false_with_shared_place(self):
        net = PetriNet()
        net.add_place("shared")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("shared", "t1")
        net.add_arc("shared", "t2")
        net.add_arc("t1", "shared")
        assert not net.is_marked_graph()

    def test_structural_conflicts(self):
        net = PetriNet()
        net.add_place("shared")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("shared", "t1")
        net.add_arc("shared", "t2")
        assert net.structural_conflicts() == ("shared",)
        assert net.has_structural_conflict()

    def test_no_structural_conflict(self, pair_net):
        net, _ = pair_net
        assert not net.has_structural_conflict()

    def test_incidence_matrix(self, pair_net):
        net, _ = pair_net
        matrix = net.incidence_matrix()
        # rows: p12, p21; columns: t1, t2
        assert matrix == [[1, -1], [-1, 1]]

    def test_incidence_matrix_self_loop_is_zero(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        assert net.incidence_matrix() == [[0]]

    def test_transition_adjacency(self, pair_net):
        net, _ = pair_net
        adjacency = net.transition_adjacency()
        assert adjacency["t1"] == [("p12", "t2")]
        assert adjacency["t2"] == [("p21", "t1")]

    def test_copy_is_deep_structural(self, simple_net):
        clone = simple_net.copy("clone")
        clone.add_place("extra")
        assert not simple_net.has_place("extra")
        assert clone.arcs == simple_net.arcs

    def test_copy_preserves_annotations(self):
        net = PetriNet()
        net.add_place("p", annotation="ack")
        net.add_transition("t", annotation="dummy")
        clone = net.copy()
        assert clone.place("p").annotation == "ack"
        assert clone.transition("t").annotation == "dummy"


class TestFromRows:
    """The bulk constructor builds the net the ``add_*`` calls build, in
    the same order, with the same checks."""

    ROWS = [
        ("p", "data", ("a",), ("b",)),
        ("q", "ack", ("b",), ("a",)),
        ("run", "run", ("a", "b"), ("a", "b")),
    ]

    def one_by_one(self):
        net = PetriNet("n")
        net.add_transition("a", "sdsp")
        net.add_transition("b", "sdsp")
        for place, annotation, producers, consumers in self.ROWS:
            net.add_place(place, annotation)
            for producer in producers:
                net.add_arc(producer, place)
            for consumer in consumers:
                net.add_arc(place, consumer)
        return net

    def test_same_net_as_one_element_at_a_time(self):
        bulk = PetriNet.from_rows("n", [("a", "sdsp"), ("b", "sdsp")], self.ROWS)
        single = self.one_by_one()
        assert bulk.place_names == single.place_names
        assert bulk.transitions == single.transitions
        assert bulk.places == single.places
        assert bulk.arcs == single.arcs
        for t in bulk.transition_names:
            assert bulk.input_places(t) == single.input_places(t)
            assert bulk.output_places(t) == single.output_places(t)
        for p in bulk.place_names:
            assert bulk.preset(p) == single.preset(p)
            assert bulk.postset(p) == single.postset(p)
        assert bulk.annotation("q") == "ack"
        assert bulk.annotation("a") == "sdsp"

    @pytest.mark.parametrize(
        "transitions, rows, message",
        [
            ([("", "")], [], "empty names"),
            ([("a", ""), ("a", "")], [], "already used"),
            ([("a", "")], [("", "", ("a",), ("a",))], "empty names"),
            ([("a", "")], [("a", "", ("a",), ("a",))], "already used"),
            (
                [("a", "")],
                [("p", "", ("a",), ("a",)), ("p", "", ("a",), ("a",))],
                "already used",
            ),
            ([("a", "")], [("p", "", ("x",), ("a",))], "unknown arc source"),
            ([("a", "")], [("p", "", ("a",), ("x",))], "unknown arc target"),
            ([("a", "")], [("p", "", ("a", "a"), ())], "duplicate arc 'a' -> 'p'"),
            ([("a", "")], [("p", "", (), ("a", "a"))], "duplicate arc 'p' -> 'a'"),
        ],
    )
    def test_checks(self, transitions, rows, message):
        with pytest.raises(NetConstructionError, match=message):
            PetriNet.from_rows("n", transitions, rows)

    def test_annotation_of_unknown_name(self):
        with pytest.raises(NetConstructionError, match="unknown node"):
            PetriNet("n").annotation("x")
