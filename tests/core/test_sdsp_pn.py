"""SDSP → SDSP-PN translation: structure and the paper's two
construction guarantees (live+safe initial marking; marked graph)."""

import pytest

from repro.core import build_sdsp_pn
from repro.errors import NetConstructionError
from repro.loops import KERNELS
from repro.petrinet import is_live, is_persistent, is_safe


class TestFigure1d:
    """Abstract mode reproduces Figure 1(d) exactly."""

    def test_five_transitions(self, l1_pn_abstract):
        assert set(l1_pn_abstract.net.transition_names) == {
            "A", "B", "C", "D", "E",
        }

    def test_ten_places(self, l1_pn_abstract):
        assert len(l1_pn_abstract.net.place_names) == 10

    def test_data_and_ack_split(self, l1_pn_abstract):
        annotations = [p.annotation for p in l1_pn_abstract.net.places]
        assert annotations.count("data") == 5
        assert annotations.count("ack") == 5

    def test_initial_marking_all_on_acks(self, l1_pn_abstract):
        for place in l1_pn_abstract.net.places:
            expected = 1 if place.annotation == "ack" else 0
            assert l1_pn_abstract.initial[place.name] == expected

    def test_marked_graph(self, l1_pn_abstract):
        assert l1_pn_abstract.net.is_marked_graph()


class TestFigure2d:
    """L2: the feedback data place starts marked, its ack empty."""

    def test_feedback_place_marked(self, l2_pn_abstract):
        (feedback,) = l2_pn_abstract.sdsp.feedback_arcs
        data_place = l2_pn_abstract.data_place_of[feedback.identifier]
        ack_place = l2_pn_abstract.ack_place_of[feedback.identifier]
        assert l2_pn_abstract.initial[data_place] == 1
        assert l2_pn_abstract.initial[ack_place] == 0

    def test_every_pair_carries_one_token(self, l2_pn_abstract):
        pn = l2_pn_abstract
        for identifier, data_place in pn.data_place_of.items():
            ack_place = pn.ack_place_of[identifier]
            assert pn.initial[data_place] + pn.initial[ack_place] == 1


class TestConstructionGuarantees:
    @pytest.mark.parametrize("key", ["loop1", "loop3", "loop5", "loop12"])
    def test_live_and_safe_by_reachability(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        assert is_live(pn.net, pn.initial)
        assert is_safe(pn.net, pn.initial)

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_live_and_safe_by_marked_graph_theorems(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        view = pn.view()
        assert view.is_live()
        assert view.is_safe()

    def test_persistent(self, l1_pn_abstract):
        assert is_persistent(l1_pn_abstract.net, l1_pn_abstract.initial)

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_always_marked_graph(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        assert pn.net.is_marked_graph()

    def test_self_feedback_has_no_ack_place(self):
        pn = build_sdsp_pn(KERNELS["loop3"].translation().graph)
        (self_arc,) = [
            a for a in pn.sdsp.feedback_arcs if a.source == a.target
        ]
        assert self_arc.identifier in pn.data_place_of
        assert self_arc.identifier not in pn.ack_place_of


class TestOptions:
    def test_default_unit_durations(self, l1_pn_full):
        assert set(l1_pn_full.durations.values()) == {1}

    def test_custom_durations(self, l1_graph):
        durations = {name: 2 for name in l1_graph.actor_names}
        pn = build_sdsp_pn(l1_graph, durations=durations)
        assert pn.durations["A"] == 2

    def test_missing_duration_rejected(self, l1_graph):
        with pytest.raises(NetConstructionError, match="no execution time"):
            build_sdsp_pn(l1_graph, durations={"A": 1})

    def test_include_io_counts(self, l1_graph):
        full = build_sdsp_pn(l1_graph, include_io=True)
        abstract = build_sdsp_pn(l1_graph, include_io=False)
        assert full.size == 14   # 5 compute + 4 loads + 5 stores
        assert abstract.size == 5

    def test_abstract_mode_with_pure_io_loop_rejected(self):
        from repro.dataflow import GraphBuilder

        b = GraphBuilder("copy")
        b.load("x", "X")
        b.store("st", "OUT", "x")
        with pytest.raises(NetConstructionError, match="no compute"):
            build_sdsp_pn(b.build(), include_io=False)

    def test_arc_of_place_lookup(self, l2_pn_abstract):
        pn = l2_pn_abstract
        (feedback,) = pn.sdsp.feedback_arcs
        data_place = pn.data_place_of[feedback.identifier]
        assert pn.arc_of_place(data_place) == feedback
        ack_place = pn.ack_place_of[feedback.identifier]
        assert pn.arc_of_place(ack_place) == feedback
        assert pn.arc_of_place("nonexistent") is None

    def test_timed_view(self, l1_pn_abstract):
        timed = l1_pn_abstract.timed
        assert timed.duration("A") == 1
