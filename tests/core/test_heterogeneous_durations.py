"""Non-unit execution times through the whole pipeline.

The paper's experiments use unit times, but its theory explicitly
covers general integer execution times ("the following results can be
extended to cases in which transitions have different execution
times", Section 4).  These tests exercise that generality: cycle-time
analysis, frustum detection, schedule derivation and verification all
with multi-cycle operations.
"""

from fractions import Fraction

import pytest

from repro.core import (
    build_sdsp_pn,
    derive_schedule,
    optimal_rate,
    steady_state_equivalent_net,
    verify_dependences,
    verify_schedule,
)
from repro.errors import AnalysisError
from repro.loops import KERNELS, parse_loop, translate
from repro.petrinet import detect_frustum


def multicycle_pn(key="loop5", multiply_duration=3):
    """Loop 5 with a slow multiplier: X[i] = Z[i] * (Y[i] - X[i-1])."""
    graph = KERNELS[key].translation().graph
    durations = {
        actor.name: (multiply_duration if actor.param("op") == "*" else 1)
        for actor in graph.actors
    }
    return build_sdsp_pn(graph, durations=durations)


class TestAnalysis:
    def test_cycle_time_includes_slow_op(self):
        pn = multicycle_pn()
        # recurrence: sub (1) -> mul (3) over 1 token, plus their acks
        assert optimal_rate(pn) == Fraction(1, 4)

    def test_self_loop_floor_from_slow_op(self):
        pn = multicycle_pn(multiply_duration=10)
        # the mul's own non-reentrance (10) exceeds the recurrence (11)?
        # recurrence = 1 + 10 = 11; floor = 10; cycle wins.
        assert optimal_rate(pn) == Fraction(1, 11)


class TestDetectionAndSchedule:
    def test_frustum_rate_matches_analysis(self):
        pn = multicycle_pn()
        frustum, _ = detect_frustum(pn.timed, pn.initial)
        assert frustum.uniform_rate() == optimal_rate(pn)

    def test_frustum_state_can_carry_residuals(self):
        """With multi-cycle ops the repeated state may capture firings
        mid-flight; detection must handle it."""
        pn = multicycle_pn()
        frustum, _ = detect_frustum(pn.timed, pn.initial)
        assert frustum.length > 0  # detection succeeded either way

    def test_schedule_derives_and_verifies(self):
        pn = multicycle_pn()
        frustum, behavior = detect_frustum(pn.timed, pn.initial)
        schedule = derive_schedule(frustum, behavior)
        report = verify_schedule(
            pn, schedule, expected_rate=optimal_rate(pn)
        )
        assert report.ok, report.violations[:3]

    def test_latency_respected_in_dependence_check(self):
        """The verifier uses real latencies: shrinking them manufactures
        slack, growing them must flag violations."""
        pn = multicycle_pn()
        frustum, behavior = detect_frustum(pn.timed, pn.initial)
        schedule = derive_schedule(frustum, behavior)
        ok = verify_dependences(pn, schedule)
        assert ok.ok
        stretched = verify_dependences(
            pn, schedule, latency_of=lambda t: pn.durations[t] + 1
        )
        assert not stretched.ok


class TestSteadyStateNetGuard:
    def test_non_quiescent_state_rejected(self):
        """The steady-state equivalent net construction requires a
        quiescent repeated state; multi-cycle operations can violate
        that, and the error must be explicit rather than a wrong net."""
        pn = multicycle_pn()
        frustum, _ = detect_frustum(pn.timed, pn.initial)
        if frustum.state.is_quiescent:
            steady = steady_state_equivalent_net(
                pn.net, pn.durations, frustum
            )
            assert steady.period == frustum.length
        else:
            with pytest.raises(AnalysisError, match="quiescent"):
                steady_state_equivalent_net(pn.net, pn.durations, frustum)

    def test_mixed_durations_all_kernels(self):
        """Every kernel with a 2-cycle multiply still reaches its
        analytic rate under earliest firing."""
        for key in ("loop1", "loop3", "loop7", "loop12"):
            graph = KERNELS[key].translation().graph
            durations = {
                actor.name: (2 if actor.param("op") == "*" else 1)
                for actor in graph.actors
            }
            pn = build_sdsp_pn(graph, durations=durations)
            frustum, _ = detect_frustum(pn.timed, pn.initial)
            assert frustum.uniform_rate() == optimal_rate(pn), key
