"""Schedule verification: positive paths and — critically — that bad
schedules are rejected."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import (
    PipelinedSchedule,
    ScheduledOp,
    derive_schedule,
    execute_schedule,
    optimal_rate,
    verify_dependences,
    verify_rate,
    verify_resource,
    verify_schedule,
)
from repro.errors import ScheduleError
from repro.loops import KERNELS, reference_execute
from repro.petrinet import detect_frustum


@pytest.fixture
def l2_setup(l2_pn_abstract):
    frustum, behavior = detect_frustum(
        l2_pn_abstract.timed, l2_pn_abstract.initial
    )
    return l2_pn_abstract, derive_schedule(frustum, behavior)


def shift_instruction(schedule, name, delta):
    """A corrupted copy: every kernel instance of ``name`` moved by
    ``delta`` cycles."""
    return PipelinedSchedule(
        prologue=[
            ScheduledOp(
                op.time + (delta if op.instruction == name else 0),
                op.instruction,
                op.iteration,
            )
            for op in schedule.prologue
        ],
        kernel=[
            (rel + (delta if n == name else 0), n, base)
            for rel, n, base in schedule.kernel
        ],
        start_time=schedule.start_time,
        initiation_interval=schedule.initiation_interval,
        iterations_per_kernel=schedule.iterations_per_kernel,
        instructions=schedule.instructions,
    )


class TestDependenceChecks:
    def test_derived_schedule_passes(self, l2_setup):
        pn, schedule = l2_setup
        report = verify_dependences(pn, schedule)
        assert report.ok
        # every place checked: at least one kernel's worth each
        assert report.checked_constraints >= len(pn.net.place_names)

    def test_violation_detected_when_instruction_moved_early(self, l2_setup):
        pn, schedule = l2_setup
        corrupted = shift_instruction(schedule, "D", -1)
        report = verify_dependences(pn, corrupted)
        assert not report.ok
        assert any("D" in v for v in report.violations)

    def test_require_raises(self, l2_setup):
        pn, schedule = l2_setup
        corrupted = shift_instruction(schedule, "D", -1)
        with pytest.raises(ScheduleError, match="verification failed"):
            verify_dependences(pn, corrupted).require()

    def test_ack_constraints_checked_too(self, l2_setup):
        """Delaying a consumer violates the *producer's* ack constraint
        eventually — the buffer discipline is part of the check."""
        pn, schedule = l2_setup
        # move A later: its consumers' acks still ok, but A's own data
        # production for B/C now arrives after B/C read it.
        corrupted = shift_instruction(schedule, "A", 2)
        report = verify_dependences(pn, corrupted)
        assert not report.ok


class TestResourceChecks:
    def test_capacity_one_flags_parallel_schedule(self, l2_setup):
        _, schedule = l2_setup
        report = verify_resource(schedule, capacity=1)
        assert not report.ok  # ideal schedule is parallel

    def test_wide_capacity_passes(self, l2_setup):
        _, schedule = l2_setup
        report = verify_resource(schedule, capacity=5)
        assert report.ok

    def test_instruction_filter(self, l2_setup):
        _, schedule = l2_setup
        report = verify_resource(schedule, capacity=1, instructions=["E"])
        assert report.ok


class TestRateCheck:
    def test_rate_matches(self, l2_setup):
        pn, schedule = l2_setup
        assert verify_rate(schedule, optimal_rate(pn)).ok

    def test_rate_mismatch_detected(self, l2_setup):
        _, schedule = l2_setup
        report = verify_rate(schedule, Fraction(1, 2))
        assert not report.ok

    def test_combined_verify(self, l2_setup):
        pn, schedule = l2_setup
        report = verify_schedule(pn, schedule, expected_rate=Fraction(1, 3))
        assert report.ok


class TestSemanticExecution:
    @pytest.mark.parametrize("key", ["loop1", "loop3", "loop5", "loop11"])
    def test_scheduled_execution_matches_reference(self, key):
        from repro.core import build_sdsp_pn

        k = KERNELS[key]
        translation = k.translation()
        pn = build_sdsp_pn(translation.graph)
        frustum, behavior = detect_frustum(pn.timed, pn.initial)
        schedule = derive_schedule(frustum, behavior)
        iterations = 6
        arrays = {n: list(v) for n, v in k.make_inputs(iterations).items()}
        initial = translation.initial_values_for(k.boundary_values())
        outputs = execute_schedule(
            translation.graph, schedule, arrays, iterations, initial
        )
        reference = reference_execute(
            k.loop(), arrays, k.scalar_bindings(), iterations,
            k.boundary_values(),
        )
        for name, stream in reference.items():
            assert np.allclose(outputs[name], stream), name

    def test_execution_detects_dependence_violation(self, l2_setup):
        pn, schedule = l2_setup
        # shift D two cycles earlier so it issues before its producers
        # even in the tie-broken issue order
        corrupted = shift_instruction(schedule, "D", -2)
        graph = pn.sdsp.graph
        arrays = {"X": [1] * 8, "Y": [1] * 8, "W": [1] * 8}
        with pytest.raises(ScheduleError, match="before it was produced"):
            execute_schedule(graph, corrupted, arrays, iterations=6)

    def test_abstract_schedule_with_implicit_io(self, l2_setup):
        """Schedules over compute nodes only: loads/stores evaluated
        implicitly."""
        pn, schedule = l2_setup
        graph = pn.sdsp.graph
        arrays = {
            "X": list(range(1, 9)),
            "Y": list(range(10, 18)),
            "W": [0] * 8,
        }
        initial = {
            arc.identifier: 7.0 for arc in graph.feedback_arcs()
        }
        outputs = execute_schedule(graph, schedule, arrays, 6, initial)
        loop = KERNELS.get("dummy")  # not used; direct reference below
        from repro.loops import parse_loop

        reference = reference_execute(
            parse_loop(
                "do L2:\n"
                "  A[i] = X[i] + 5\n"
                "  B[i] = Y[i] + A[i]\n"
                "  C[i] = A[i] + E[i-1]\n"
                "  D[i] = B[i] + C[i]\n"
                "  E[i] = W[i] + D[i]\n"
            ),
            arrays,
            iterations=6,
            boundary={"E": 7.0},
        )
        assert np.allclose(outputs["E"], reference["E"])
