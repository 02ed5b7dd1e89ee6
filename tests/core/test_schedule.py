"""Schedule derivation from frustums (Figure 1(g))."""

from fractions import Fraction

import pytest

from repro.core import (
    PipelinedSchedule,
    ScheduledOp,
    build_sdsp_scp_pn,
    derive_schedule,
)
from repro.errors import ScheduleError
from repro.machine import FifoRunPlacePolicy
from repro.petrinet import detect_frustum


@pytest.fixture
def l1_schedule(l1_pn_abstract):
    frustum, behavior = detect_frustum(
        l1_pn_abstract.timed, l1_pn_abstract.initial
    )
    return derive_schedule(frustum, behavior)


@pytest.fixture
def l2_schedule(l2_pn_abstract):
    frustum, behavior = detect_frustum(
        l2_pn_abstract.timed, l2_pn_abstract.initial
    )
    return derive_schedule(frustum, behavior)


class TestDerivation:
    def test_l1_kernel_matches_figure_1g(self, l1_schedule):
        """Figure 1(g): the repeating pattern fires {A, D} on one cycle
        and {B, C, E} on the next, II = 2."""
        assert l1_schedule.initiation_interval == 2
        assert l1_schedule.iterations_per_kernel == 1
        rows = {
            rel: sorted(name for name, _ in entries)
            for rel, entries in l1_schedule.kernel_rows()
        }
        assert rows == {0: ["A", "D"], 1: ["B", "C", "E"]}

    def test_l1_rate(self, l1_schedule):
        assert l1_schedule.rate == Fraction(1, 2)

    def test_l1_prologue_fills_the_pipeline(self, l1_schedule):
        names = [(op.time, op.instruction, op.iteration) for op in l1_schedule.prologue]
        assert (0, "A", 0) in names
        assert (1, "B", 0) in names

    def test_l2_period_three(self, l2_schedule):
        assert l2_schedule.initiation_interval == 3
        assert l2_schedule.rate == Fraction(1, 3)

    def test_kernel_span_shows_overlap(self, l1_schedule):
        # software pipelining: the kernel mixes two consecutive iterations
        assert l1_schedule.kernel_span == 2


class TestLookupAndExpansion:
    def test_start_of_prologue_instance(self, l1_schedule):
        assert l1_schedule.start_of("A", 0) == 0

    def test_start_of_kernel_instances_advance_by_ii(self, l1_schedule):
        t1 = l1_schedule.start_of("D", 1)
        t2 = l1_schedule.start_of("D", 2)
        assert t2 - t1 == l1_schedule.initiation_interval

    def test_start_of_unknown_instruction(self, l1_schedule):
        with pytest.raises(ScheduleError, match="unknown"):
            l1_schedule.start_of("Z", 0)

    def test_expand_covers_all_iterations(self, l1_schedule):
        ops = l1_schedule.expand(5)
        for name in "ABCDE":
            iterations = sorted(
                op.iteration for op in ops if op.instruction == name
            )
            assert iterations == [0, 1, 2, 3, 4]

    def test_expand_sorted_by_time(self, l1_schedule):
        ops = l1_schedule.expand(5)
        times = [op.time for op in ops]
        assert times == sorted(times)

    def test_expand_agrees_with_start_of(self, l2_schedule):
        for op in l2_schedule.expand(6):
            assert l2_schedule.start_of(op.instruction, op.iteration) == op.time


class TestRestrictionAndErrors:
    def test_scp_schedule_restricted_to_instructions(self, l1_pn_abstract):
        scp = build_sdsp_scp_pn(l1_pn_abstract, stages=4)
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        frustum, behavior = detect_frustum(scp.timed, scp.initial, policy)
        schedule = derive_schedule(
            frustum, behavior, instructions=scp.sdsp_transitions
        )
        assert set(schedule.instructions) == set(scp.sdsp_transitions)
        for _, name, _ in schedule.kernel:
            assert not name.startswith("delay[")

    def test_unequal_counts_rejected(self, l1_pn_abstract):
        scp = build_sdsp_scp_pn(l1_pn_abstract, stages=4)
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        frustum, behavior = detect_frustum(scp.timed, scp.initial, policy)
        # instructions + dummies fire different counts per frustum when
        # periods differ... craft the failure by mixing one dummy in.
        mixed = list(scp.sdsp_transitions) + [scp.dummy_transitions[0]]
        counts = {frustum.firing_counts.get(t, 0) for t in mixed}
        if len(counts) > 1:
            with pytest.raises(ScheduleError, match="unequal"):
                derive_schedule(frustum, behavior, instructions=mixed)
        else:
            derive_schedule(frustum, behavior, instructions=mixed)

    def test_bad_ii_rejected(self):
        with pytest.raises(ScheduleError, match="positive"):
            PipelinedSchedule(
                prologue=[],
                kernel=[(0, "a", 0)],
                start_time=0,
                initiation_interval=0,
                iterations_per_kernel=1,
                instructions=("a",),
            )

    def test_bad_k_rejected(self):
        with pytest.raises(ScheduleError, match="at least one"):
            PipelinedSchedule(
                prologue=[],
                kernel=[(0, "a", 0)],
                start_time=0,
                initiation_interval=1,
                iterations_per_kernel=0,
                instructions=("a",),
            )

    def test_kernel_short_of_k_entries_rejected(self):
        # k = 2 but one kernel entry: a lookup of iteration 1 would have
        # no kernel slot, and an expansion would skip odd iterations
        with pytest.raises(ScheduleError, match="kernel bases of 'a'"):
            PipelinedSchedule(
                prologue=[],
                kernel=[(0, "a", 0)],
                start_time=0,
                initiation_interval=2,
                iterations_per_kernel=2,
                instructions=("a",),
            )

    @pytest.mark.parametrize(
        "prologue, kernel, k, match",
        [
            # prologue iterations must be exactly 0 .. P-1
            ([ScheduledOp(0, "a", 1)], [(0, "a", 2)], 1, "prologue iter"),
            (
                [ScheduledOp(0, "a", 0), ScheduledOp(1, "a", 0)],
                [(0, "a", 2)],
                1,
                "prologue iter",
            ),
            # k kernel bases must continue the prologue, in issue order
            ([ScheduledOp(0, "a", 0)], [(0, "a", 2)], 1, "kernel bases"),
            ([], [(1, "a", 0), (0, "a", 1)], 2, "kernel bases"),
            ([], [(0, "a", 0), (1, "a", 1), (2, "a", 2)], 2, "kernel bases"),
            # every issued instruction must be declared
            ([ScheduledOp(0, "z", 0)], [(0, "a", 0)], 1, "unknown"),
            ([], [(0, "a", 0), (0, "z", 0)], 1, "unknown"),
        ],
    )
    def test_malformed_schedule_rejected(self, prologue, kernel, k, match):
        with pytest.raises(ScheduleError, match=match):
            PipelinedSchedule(
                prologue=prologue,
                kernel=kernel,
                start_time=2,
                initiation_interval=3,
                iterations_per_kernel=k,
                instructions=("a",),
            )

    def test_malformed_payload_rejected(self, l1_schedule):
        from repro.compiler.result import (
            schedule_from_payload,
            schedule_payload,
        )

        data = schedule_payload(l1_schedule)
        assert schedule_from_payload(data) == l1_schedule
        data["kernel"] = data["kernel"][1:]
        with pytest.raises(ScheduleError, match="kernel bases"):
            schedule_from_payload(data)

    def test_negative_iteration_rejected(self, l1_schedule):
        with pytest.raises(ScheduleError, match="precedes"):
            l1_schedule.start_of("A", -1)

    def test_negative_index_before_prologue(self):
        schedule = PipelinedSchedule(
            prologue=[ScheduledOp(0, "a", 0), ScheduledOp(1, "a", 1)],
            kernel=[(0, "a", 2)],
            start_time=2,
            initiation_interval=1,
            iterations_per_kernel=1,
            instructions=("a",),
        )
        assert schedule.start_of("a", 0) == 0
        assert schedule.start_of("a", 3) == 3
