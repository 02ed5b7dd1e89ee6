"""The periodic certificate proves every iteration, not a prefix.

Past its prologue an instruction issues at ``start(i + k) = start(i) +
II``, so :func:`verify_dependences` checks each place only up to one
kernel beyond both prologues, and :func:`verify_resource` counts the
prologue's cycles plus the kernel's slots modulo II.  The hand-built
cases below break a constraint only where a 12-iteration replay never
looks; the property test compares both verdicts with the brute-force
replay kept here as the reference.
"""

import dataclasses
import pathlib
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    PipelinedSchedule,
    ScheduledOp,
    build_sdsp_pn,
    verify_dependences,
    verify_resource,
)
from repro.loops import parse_loop, translate
from repro.petrinet import Marking
from repro.pipeline import compile_loop

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

CHAIN = """
doall chain:
    A[i] = X[i] + 1
    B[i] = A[i] * 2
"""


@pytest.fixture
def chain_pn():
    """Two instructions: data place A -> B (0 tokens), ack place
    B -> A (1 token), unit latencies."""
    return build_sdsp_pn(translate(parse_loop(CHAIN)).graph, include_io=False)


def ack_place(pn):
    (place,) = [p for p in pn.net.place_names if p.startswith("a[")]
    return place


def alternating_prologue(iterations):
    """A(i) at cycle 2i and B(i) at 2i + 1 — valid on the chain net."""
    return [
        op
        for i in range(iterations)
        for op in (ScheduledOp(2 * i, "A", i), ScheduledOp(2 * i + 1, "B", i))
    ]


# ----------------------------------------------------------------------
# The brute-force reference: replay a finite prefix
# ----------------------------------------------------------------------
def brute_dependences_ok(pn, schedule, iterations, latency_of):
    """Every place constraint for consumer iterations below
    ``iterations``."""
    scheduled = set(schedule.instructions)
    for place in pn.net.place_names:
        (producer,) = pn.net.input_transitions(place)
        (consumer,) = pn.net.output_transitions(place)
        if producer not in scheduled or consumer not in scheduled:
            continue
        tokens = pn.initial[place]
        for i in range(tokens, iterations):
            ready = schedule.start_of(producer, i - tokens) + latency_of(
                producer
            )
            if schedule.start_of(consumer, i) < ready:
                return False
    return True


def brute_resource_ok(schedule, iterations, capacity):
    """At most ``capacity`` issues in every cycle of the expansion of
    the first ``iterations`` iterations."""
    per_cycle: Dict[int, int] = {}
    for op in schedule.expand(iterations):
        per_cycle[op.time] = per_cycle.get(op.time, 0) + 1
    return all(count <= capacity for count in per_cycle.values())


# ----------------------------------------------------------------------
# Hand-built schedules a 12-iteration replay passes
# ----------------------------------------------------------------------
class TestBeyondTwelveIterations:
    def test_violation_after_a_long_prologue_is_rejected(self, chain_pn):
        # A(i) at 2i, B(i) at 2i + 1 for 12 prologue iterations, then a
        # kernel issuing B in the same cycle as A: iteration 12 reads
        # A's result one cycle early, and so does every later one
        schedule = PipelinedSchedule(
            prologue=alternating_prologue(12),
            kernel=[(0, "A", 12), (0, "B", 12)],
            start_time=24,
            initiation_interval=2,
            iterations_per_kernel=1,
            instructions=("A", "B"),
        )
        assert brute_dependences_ok(
            chain_pn, schedule, 12, chain_pn.durations.__getitem__
        )
        report = verify_dependences(chain_pn, schedule)
        assert not report.ok
        assert "'B' iteration 12 starts at 24" in report.violations[0]

    def test_place_with_twelve_tokens_is_checked(self, chain_pn):
        # a 12-deep buffer on the ack place: A may run at most 12
        # iterations ahead of B.  Here A leads B by 20 cycles at II = 1,
        # which breaks the buffer on every iteration >= 12.
        place = ack_place(chain_pn)
        deep = dataclasses.replace(
            chain_pn, initial=Marking({**chain_pn.initial, place: 12})
        )
        schedule = PipelinedSchedule(
            prologue=[],
            kernel=[(0, "A", 0), (20, "B", 0)],
            start_time=0,
            initiation_interval=1,
            iterations_per_kernel=1,
            instructions=("A", "B"),
        )
        # a 12-iteration replay checks nothing on that place
        assert brute_dependences_ok(
            deep, schedule, 12, deep.durations.__getitem__
        )
        report = verify_dependences(deep, schedule)
        assert not report.ok
        assert all(place in violation for violation in report.violations)
        # one kernel's worth on each place: i = 12 on the ack place,
        # i = 0 on the data place
        assert report.checked_constraints == 2

    def test_resource_clash_only_in_the_steady_state(self):
        # the prologue issues one instruction per cycle; the kernel
        # puts A and B in the same slot, from cycle 30 on forever
        schedule = PipelinedSchedule(
            prologue=alternating_prologue(15),
            kernel=[(0, "A", 15), (2, "B", 15)],
            start_time=30,
            initiation_interval=2,
            iterations_per_kernel=1,
            instructions=("A", "B"),
        )
        assert brute_resource_ok(schedule, 12, capacity=1)
        report = verify_resource(schedule, capacity=1)
        assert report.violations == [
            "kernel slot 0: 2 instructions issued at cycle 32 and every 2 "
            "cycles after, capacity 1"
        ]
        # 30 prologue cycles and the kernel's single occupied slot
        assert report.checked_constraints == 31

    def test_kernel_overlapping_the_prologue_is_counted(self):
        # B's prologue issue at cycle 4 lands on A's first kernel issue
        schedule = PipelinedSchedule(
            prologue=[ScheduledOp(0, "A", 0), ScheduledOp(4, "B", 0)],
            kernel=[(0, "A", 1), (1, "B", 1)],
            start_time=4,
            initiation_interval=2,
            iterations_per_kernel=1,
            instructions=("A", "B"),
        )
        report = verify_resource(schedule, capacity=1)
        assert report.violations == [
            "cycle 4: 2 instructions issued, capacity 1"
        ]


# ----------------------------------------------------------------------
# Property: the periodic verdict equals the brute-force verdict
# ----------------------------------------------------------------------
def derived_cases():
    """``(pn, schedule, latency_of)`` for the examples' ideal and
    4-stage SCP schedules at U = 1 and 2."""
    cases = []
    for name in ("l1", "l2", "interleave", "frac5"):
        source = (EXAMPLES / f"{name}.loop").read_text()
        for unroll in (1, 2):
            compiled = compile_loop(
                source, include_io=False, unroll=unroll, pipeline_stages=4
            )
            latency = compiled.pn.durations.__getitem__
            cases.append((compiled.pn, compiled.schedule, latency))
            cases.append((compiled.pn, compiled.scp_schedule, lambda t: 4))
    return cases


CASES = derived_cases()


def shifted(schedule, shifts):
    """Every issue of instruction ``x`` moved by ``shifts[x]`` cycles,
    prologue and kernel alike (so the kernel still repeats)."""
    return PipelinedSchedule(
        prologue=[
            dataclasses.replace(op, time=op.time + shifts[op.instruction])
            for op in schedule.prologue
        ],
        kernel=[
            (rel + shifts[name], name, base)
            for rel, name, base in schedule.kernel
        ],
        start_time=schedule.start_time,
        initiation_interval=schedule.initiation_interval,
        iterations_per_kernel=schedule.iterations_per_kernel,
        instructions=schedule.instructions,
    )


@st.composite
def shifted_cases(draw):
    """A derived schedule moved as a whole, with up to two instructions
    moved apart from the rest — a whole-schedule move keeps every
    dependence, so the draws cover both verdicts.  Every shift stays
    within one II."""
    pn, schedule, latency_of = draw(st.sampled_from(CASES))
    ii = schedule.initiation_interval
    whole = draw(st.integers(-ii, ii))
    moved = draw(
        st.dictionaries(
            st.sampled_from(schedule.instructions),
            st.integers(-ii, ii),
            max_size=2,
        )
    )
    shifts = {
        name: max(-ii, min(ii, whole + moved.get(name, 0)))
        for name in schedule.instructions
    }
    capacity = draw(st.integers(1, 3))
    return pn, shifted(schedule, shifts), latency_of, capacity


@given(case=shifted_cases())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_periodic_verdict_equals_brute_force(case):
    pn, schedule, latency_of, capacity = case
    # three kernels past the longest prologue: the derived schedules
    # issue their prologue before start_time and their kernel within
    # one II, SDSP places hold at most one token, and shifts stay
    # within one II, so every constraint and every cycle's full count
    # shows up inside this prefix
    horizon = (
        max(schedule.prologue_length(x) for x in schedule.instructions)
        + 3 * schedule.iterations_per_kernel
    )
    assert verify_dependences(
        pn, schedule, latency_of=latency_of
    ).ok == brute_dependences_ok(pn, schedule, horizon, latency_of)
    assert verify_resource(schedule, capacity=capacity).ok == (
        brute_resource_ok(schedule, horizon, capacity)
    )
