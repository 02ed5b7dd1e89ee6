"""Theoretical and observed detection bounds (Sections 4 and 5)."""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings

from repro.core import (
    CRITICAL_CYCLE_BUDGET,
    SdspPetriNet,
    build_sdsp_pn,
    build_sdsp_scp_pn,
    count_critical_cycles,
    measure_detection,
    observed_bound_scp,
    observed_bound_sdsp,
    theoretical_bounds,
)
from repro.compiler.result import bounds_payload
from repro.errors import AnalysisError
from repro.loops import KERNELS
from repro.machine import FifoRunPlacePolicy
from repro.petrinet import Marking, PetriNet, critical_cycle_report, howard_analysis
from repro.pipeline import CompiledLoopSummary
from tests.petrinet.test_howard import timed_marked_graphs

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "compiler" / "golden"
#: parallel_pair(k) has k² critical cycles: at most the budget for
#: EXACT, past it for OVER
EXACT = math.isqrt(CRITICAL_CYCLE_BUDGET)
OVER = EXACT + 1


def enumerated_count(view, durations):
    report = critical_cycle_report(view, durations)
    return len(report.critical_cycles) + len(report.critical_self_loops)


def parallel_pair(k):
    """Two unit-time transitions joined by ``k`` places each way, one
    token on each forward place: all ``k²`` two-cycles are critical
    (ratio 2 beats the self-loops' 1)."""
    net = PetriNet(name="parallel")
    for name in ("a", "b"):
        net.add_transition(name)
    tokens = {}
    for index in range(k):
        for place, producer, consumer in (
            (f"f{index:03d}", "a", "b"),
            (f"r{index:03d}", "b", "a"),
        ):
            net.add_place(place)
            net.add_arc(producer, place)
            net.add_arc(place, consumer)
        tokens[f"f{index:03d}"] = 1
    return SdspPetriNet(
        sdsp=None,
        net=net,
        initial=Marking(tokens, net),
        durations={"a": 1, "b": 1},
        data_place_of={},
        ack_place_of={},
    )


class TestTheoreticalBounds:
    def test_single_critical_cycle_case(self, l2_pn_abstract):
        bounds = theoretical_bounds(l2_pn_abstract)
        # L2 has the unique critical cycle CDEC
        assert bounds.case == "single"
        assert bounds.iteration_bound == bounds.n**3
        assert bounds.step_bound == bounds.n**4
        assert bounds.covers_all_transitions

    def test_multiple_critical_cycles_case(self, l1_pn_abstract):
        bounds = theoretical_bounds(l1_pn_abstract)
        # every data/ack pair of L1 is a critical 2-cycle
        assert bounds.case == "multiple"
        assert bounds.iteration_bound == bounds.n**2
        assert bounds.step_bound == bounds.n**3
        assert not bounds.covers_all_transitions

    def test_bounds_read_the_nets_howard_run(self, l2_pn_abstract):
        howard = l2_pn_abstract.howard
        theoretical_bounds(l2_pn_abstract)
        assert l2_pn_abstract.howard is howard

    def test_observed_bound_formulas(self):
        assert observed_bound_sdsp(10) == 20
        assert observed_bound_scp(10, 8, 5) == 2 * 8 * 5 + 40


class TestCriticalGraphCount:
    """The count in Howard's critical graph against the enumeration
    oracle, and the budget that bounds its work."""

    @settings(max_examples=300, deadline=None)
    @given(graph=timed_marked_graphs())
    def test_matches_enumeration_on_generated_graphs(self, graph):
        view, durations = graph
        try:
            expected = enumerated_count(view, durations)
        except AnalysisError:
            with pytest.raises(AnalysisError):
                howard_analysis(view, durations)
            return
        count, capped = count_critical_cycles(howard_analysis(view, durations))
        assert (count, capped) == (expected, False)

    @pytest.mark.parametrize("key", sorted(KERNELS))
    @pytest.mark.parametrize("include_io", [False, True])
    def test_matches_enumeration_on_the_kernels(self, key, include_io):
        pn = build_sdsp_pn(
            KERNELS[key].translation().graph, include_io=include_io
        )
        bounds = theoretical_bounds(pn)
        assert bounds.critical_cycle_count == enumerated_count(
            pn.view(), pn.durations
        )
        assert not bounds.critical_cycle_count_capped

    def test_budget_holds_an_exact_count(self):
        bounds = theoretical_bounds(parallel_pair(EXACT))
        assert bounds.critical_cycle_count == EXACT * EXACT
        assert not bounds.critical_cycle_count_capped
        assert "critical_cycle_count_capped" not in bounds_payload(bounds)

    def test_count_stops_at_the_budget(self):
        pn = parallel_pair(OVER)
        assert count_critical_cycles(pn.howard) == (CRITICAL_CYCLE_BUDGET, True)
        bounds = theoretical_bounds(pn)
        assert bounds.critical_cycle_count == CRITICAL_CYCLE_BUDGET
        assert bounds.critical_cycle_count_capped
        assert bounds.case == "multiple"
        assert bounds_payload(bounds)["critical_cycle_count_capped"] is True

    def test_capped_payload_parses(self):
        payload = json.loads((GOLDEN / "l1_acode.json").read_text())
        bounds = theoretical_bounds(parallel_pair(OVER))
        payload["bounds"] = bounds_payload(bounds)
        assert CompiledLoopSummary.from_payload(payload).bounds == bounds

    def test_goldens_carry_no_capped_flag(self):
        for path in sorted(GOLDEN.glob("*.json")):
            payload = json.loads(path.read_text())
            assert "critical_cycle_count_capped" not in payload["bounds"]
            summary = CompiledLoopSummary.from_payload(payload)
            assert not summary.bounds.critical_cycle_count_capped


class TestMeasurement:
    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_detection_within_2n_paper_claim(self, key):
        """Section 5: 'in each example the repeated instantaneous state
        is found within 2n time steps' — the headline O(n) result."""
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        measurement, frustum = measure_detection(pn)
        assert measurement.within_observed_bound, (
            f"{key}: repeat {measurement.repeat_time} > "
            f"BD {measurement.observed_bound}"
        )
        assert measurement.repeat_time <= measurement.step_bound_theory

    @pytest.mark.parametrize("key", ["loop1", "loop5", "loop7", "loop12"])
    def test_scp_detection_within_calibrated_bound(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        scp = build_sdsp_scp_pn(pn, stages=8)
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        measurement, _ = measure_detection(pn, policy=policy, scp=scp)
        assert measurement.within_observed_bound

    def test_measurement_fields(self, l1_pn_abstract):
        measurement, frustum = measure_detection(l1_pn_abstract)
        assert measurement.n == 5
        assert measurement.frustum_length == frustum.length
        assert measurement.repeat_time == frustum.repeat_time
        from fractions import Fraction

        assert measurement.steps_per_n == Fraction(measurement.repeat_time, 5)
