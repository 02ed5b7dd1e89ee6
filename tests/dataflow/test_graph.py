"""Dataflow graph structure and queries."""

import pytest

from repro.dataflow import ArcKind, DataArc, DataflowGraph, binop, load, store, switch
from repro.errors import DataflowError


@pytest.fixture
def diamond():
    """ld -> a -> (b, c) -> d -> st."""
    graph = DataflowGraph("diamond")
    graph.add_actor(load("ld", "X"))
    graph.add_actor(binop("a", "+", immediate=1, immediate_port=1))
    graph.add_actor(binop("b", "+", immediate=2, immediate_port=1))
    graph.add_actor(binop("c", "+", immediate=3, immediate_port=1))
    graph.add_actor(binop("d", "+"))
    graph.add_actor(store("st", "OUT"))
    graph.add_arc(DataArc("ld", "a", 0))
    graph.add_arc(DataArc("a", "b", 0))
    graph.add_arc(DataArc("a", "c", 0))
    graph.add_arc(DataArc("b", "d", 0))
    graph.add_arc(DataArc("c", "d", 1))
    graph.add_arc(DataArc("d", "st", 0))
    return graph


class TestConstruction:
    def test_duplicate_actor_rejected(self, diamond):
        with pytest.raises(DataflowError, match="already exists"):
            diamond.add_actor(load("ld", "Y"))

    def test_arc_unknown_source_rejected(self, diamond):
        with pytest.raises(DataflowError, match="not an actor"):
            diamond.add_arc(DataArc("ghost", "d", 0))

    def test_arc_port_out_of_range(self, diamond):
        with pytest.raises(DataflowError, match="out of range"):
            diamond.add_arc(DataArc("ld", "d", 5))

    def test_double_driven_port_rejected(self, diamond):
        with pytest.raises(DataflowError, match="already driven"):
            diamond.add_arc(DataArc("ld", "d", 0))

    def test_store_has_no_outputs(self, diamond):
        with pytest.raises(DataflowError, match="no outputs"):
            diamond.add_arc(DataArc("st", "a", 0))

    def test_feedback_needs_initial_token(self):
        graph = DataflowGraph()
        graph.add_actor(binop("a", "+"))
        with pytest.raises(DataflowError, match="at least one"):
            graph.add_arc(
                DataArc("a", "a", 0, kind=ArcKind.FEEDBACK, initial_tokens=0)
            )

    def test_forward_must_start_empty(self):
        graph = DataflowGraph()
        graph.add_actor(binop("a", "+"))
        graph.add_actor(binop("b", "+"))
        with pytest.raises(DataflowError, match="start empty"):
            graph.add_arc(DataArc("a", "b", 0, initial_tokens=1))

    def test_switch_source_ports(self):
        graph = DataflowGraph()
        graph.add_actor(switch("s"))
        graph.add_actor(binop("t", "+"))
        graph.add_arc(DataArc("s", "t", 0, source_port=1))
        with pytest.raises(DataflowError, match="out of range"):
            graph.add_arc(DataArc("s", "t", 1, source_port=2))

    def test_non_switch_single_output_port(self, diamond):
        with pytest.raises(DataflowError, match="out of range"):
            diamond.add_arc(DataArc("a", "d", 1, source_port=1))


class TestQueries:
    def test_in_arcs_sorted_by_port(self, diamond):
        arcs = diamond.in_arcs("d")
        assert [a.source for a in arcs] == ["b", "c"]
        assert [a.target_port for a in arcs] == [0, 1]

    def test_out_arcs(self, diamond):
        assert {a.target for a in diamond.out_arcs("a")} == {"b", "c"}

    def test_indexes_agree_with_the_arc_list(self, diamond):
        for name in diamond.actor_names:
            assert diamond.in_arcs(name) == sorted(
                (a for a in diamond.arcs if a.target == name),
                key=lambda a: a.target_port,
            )
            assert diamond.out_arcs(name) == sorted(
                (a for a in diamond.arcs if a.source == name),
                key=lambda a: (a.source_port, a.target, a.target_port),
            )
        assert diamond.in_arcs("no_such_actor") == []
        assert diamond.out_arcs("no_such_actor") == []

    def test_predecessors_successors(self, diamond):
        assert diamond.predecessors("d") == ["b", "c"]
        assert set(diamond.successors("a")) == {"b", "c"}

    def test_forward_feedback_partition(self, diamond):
        assert len(diamond.forward_arcs()) == 6
        assert diamond.feedback_arcs() == []
        assert not diamond.has_loop_carried_dependence()

    def test_arc_identifier(self):
        arc = DataArc("u", "v", 1, source_port=0)
        assert arc.identifier == "u.0->v.1"

    def test_len_and_actor_lookup(self, diamond):
        assert len(diamond) == 6
        assert diamond.actor("d").name == "d"
        with pytest.raises(DataflowError, match="unknown actor"):
            diamond.actor("nope")


class TestDerived:
    def test_topological_order_respects_arcs(self, diamond):
        order = diamond.forward_topological_order()
        assert order.index("ld") < order.index("a") < order.index("d")
        assert order.index("d") < order.index("st")

    def test_forward_cycle_rejected(self):
        graph = DataflowGraph()
        graph.add_actor(binop("a", "+"))
        graph.add_actor(binop("b", "+"))
        graph.add_arc(DataArc("a", "b", 0))
        graph.add_arc(DataArc("b", "a", 0))
        with pytest.raises(DataflowError, match="cycle"):
            graph.forward_topological_order()

    def test_critical_path_length(self, diamond):
        # ld -> a -> b -> d -> st = 5 nodes
        assert diamond.critical_path_length() == 5

    def test_feedback_not_counted_in_critical_path(self):
        graph = DataflowGraph()
        graph.add_actor(binop("a", "+", immediate=1, immediate_port=1))
        graph.add_arc(
            DataArc("a", "a", 0, kind=ArcKind.FEEDBACK, initial_tokens=1)
        )
        assert graph.critical_path_length() == 1

    def test_acknowledgement_arcs_reverse_data(self, diamond):
        acks = diamond.acknowledgement_arcs()
        assert len(acks) == 6
        sources = {(a, b) for a, b, _ in acks}
        assert ("d", "b") in sources

    def test_copy_independent(self, diamond):
        clone = diamond.copy("copy")
        clone.add_actor(load("extra", "Z"))
        assert not diamond.has_actor("extra")
        assert len(clone.arcs) == len(diamond.arcs)

    def test_adjacency_edge_count(self, diamond):
        adjacency = diamond.adjacency()
        assert set(adjacency) == set(diamond.actor_names)
        assert sum(len(targets) for targets in adjacency.values()) == 6

    def test_adjacency_can_leave_feedback_out(self):
        graph = DataflowGraph()
        graph.add_actor(binop("a", "+", immediate=1, immediate_port=1))
        graph.add_arc(
            DataArc("a", "a", 0, kind=ArcKind.FEEDBACK, initial_tokens=1)
        )
        assert graph.adjacency() == {"a": ["a"]}
        assert graph.adjacency(include_feedback=False) == {"a": []}
