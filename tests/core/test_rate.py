"""Computation rates and the Theorem 5.2.2 resource bound."""

import dataclasses
from fractions import Fraction

import pytest

from repro.core import (
    build_sdsp_pn,
    dependence_cycle_time,
    sdsp_pn_table,
    build_sdsp_scp_pn,
    critical_cycles,
    dependence_bound_rate,
    frustum_rate,
    optimal_rate,
    pipeline_utilization,
    scp_rate_upper_bound,
)
from repro.errors import AnalysisError
from repro.loops import KERNELS
from repro.machine import FifoRunPlacePolicy
from repro.petrinet import (
    Marking,
    MarkedGraphView,
    PetriNet,
    cycle_time_by_enumeration,
    detect_frustum,
)


class TestOptimalRate:
    def test_l1_rate_half(self, l1_pn_abstract):
        assert optimal_rate(l1_pn_abstract) == Fraction(1, 2)

    def test_l2_rate_third(self, l2_pn_abstract):
        assert optimal_rate(l2_pn_abstract) == Fraction(1, 3)

    def test_l2_critical_cycle_is_cdec(self, l2_pn_abstract):
        report = critical_cycles(l2_pn_abstract)
        assert report.cycle_time == 3
        critical_nodes = report.transitions_on_critical_cycles
        assert {"C", "D", "E"} <= set(critical_nodes)

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_simulation_achieves_optimal_rate(self, key):
        """Time-optimality: the earliest-firing frustum rate equals the
        critical-cycle bound for every Livermore kernel."""
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        frustum, _ = detect_frustum(pn.timed, pn.initial)
        assert frustum.uniform_rate() == optimal_rate(pn)


class TestScpBounds:
    def test_rate_upper_bound_is_one_over_n(self, l1_pn_abstract):
        scp = build_sdsp_scp_pn(l1_pn_abstract, stages=8)
        assert scp_rate_upper_bound(scp) == Fraction(1, 5)

    @pytest.mark.parametrize("key", ["loop1", "loop5", "loop7", "loop12"])
    def test_theorem_522_never_violated(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        scp = build_sdsp_scp_pn(pn, stages=8)
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        frustum, _ = detect_frustum(scp.timed, scp.initial, policy)
        bound = scp_rate_upper_bound(scp)
        for name in scp.sdsp_transitions:
            assert frustum_rate(frustum, name) <= bound

    def test_utilization_is_one_when_bound_met(self):
        """Loop 7 has n=26 >= 2l=16: the pipeline saturates."""
        pn = build_sdsp_pn(KERNELS["loop7"].translation().graph)
        scp = build_sdsp_scp_pn(pn, stages=8)
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        frustum, _ = detect_frustum(scp.timed, scp.initial, policy)
        assert pipeline_utilization(scp, frustum) == 1
        assert frustum_rate(frustum, scp.sdsp_transitions[0]) == (
            scp_rate_upper_bound(scp)
        )

    def test_utilization_below_one_for_short_loops(self, l1_pn_abstract):
        """With n < 2l the acknowledgement round trip starves the
        pipeline: utilisation n/(2l) + epsilon territory."""
        scp = build_sdsp_scp_pn(l1_pn_abstract, stages=8)
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        frustum, _ = detect_frustum(scp.timed, scp.initial, policy)
        utilization = pipeline_utilization(scp, frustum)
        assert utilization < 1
        assert utilization > 0


class TestAnalysisGuards:
    """Analysis-path failures must be AnalysisError, never a raw
    ZeroDivisionError or a silent rate of 0."""

    def empty_frustum(self, pn):
        frustum, _ = detect_frustum(pn.timed, pn.initial)
        return dataclasses.replace(
            frustum, repeat_time=frustum.start_time, firing_counts={}
        )

    def test_frustum_rate_on_empty_frustum_raises(self, l1_pn_abstract):
        with pytest.raises(AnalysisError, match="frustum is empty"):
            frustum_rate(self.empty_frustum(l1_pn_abstract), "A")

    def test_frustum_rate_on_unknown_instruction_raises(
        self, l1_pn_abstract
    ):
        frustum, _ = detect_frustum(
            l1_pn_abstract.timed, l1_pn_abstract.initial
        )
        with pytest.raises(AnalysisError, match="does not fire"):
            frustum_rate(frustum, "no-such-instruction")

    def test_pipeline_utilization_on_empty_frustum_raises(
        self, l1_pn_abstract
    ):
        scp = build_sdsp_scp_pn(l1_pn_abstract, stages=8)
        with pytest.raises(AnalysisError, match="empty frustum"):
            pipeline_utilization(scp, self.empty_frustum(l1_pn_abstract))


class TestDependenceBound:
    """γ* = 1 / cycle time of the ack-free dependence subnet: the rate
    ceiling unrolling closes on."""

    def test_doall_bound_is_one(self, l1_graph):
        # L1 has no loop-carried dependence: only the implicit
        # non-reentrance self-loops bind, γ* = 1 / max τ = 1
        assert dependence_bound_rate(l1_graph, include_io=False) == 1

    def test_recurrence_bound_matches_critical_data_cycle(self, l2_graph):
        assert dependence_bound_rate(l2_graph, include_io=False) == (
            Fraction(1, 3)
        )

    def test_bound_never_below_ack_limited_rate(self, l1_graph):
        pn = build_sdsp_pn(l1_graph, include_io=False)
        assert dependence_bound_rate(l1_graph, include_io=False) >= (
            optimal_rate(pn)
        )

    @pytest.mark.parametrize("key", sorted(KERNELS))
    @pytest.mark.parametrize("include_io", [True, False])
    def test_matches_enumeration_on_the_data_places(self, key, include_io):
        """The bound reads the table's data rows with no net built; the
        oracle builds the data places' net and enumerates its cycles
        (implicit self-loops included)."""
        graph = KERNELS[key].translation().graph
        table = sdsp_pn_table(graph, include_io=include_io)
        net = PetriNet.from_rows(
            "data-only",
            [(t, "sdsp") for t in table.transitions],
            [(p, "data", (u,), (v,)) for p, u, v, _ in table.data_edges],
        )
        marking = Marking({p: m for p, _, _, m in table.data_edges if m}, net)
        assert all(p.startswith("d[") for p, _, _, _ in table.data_edges)
        expected = cycle_time_by_enumeration(
            MarkedGraphView(net, marking), table.durations
        )
        assert dependence_cycle_time(graph, include_io=include_io) == expected
