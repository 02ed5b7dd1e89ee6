"""The event engine's state is a token vector: a detection builds no
marking per event, and the behavior graph builds its steps on read."""

import pytest

from repro.core import build_sdsp_pn, build_sdsp_scp_pn
from repro.loops import KERNELS
from repro.loops.unroll import unroll_graph
from repro.machine import FifoRunPlacePolicy
from repro.petrinet import (
    EarliestFiringSimulator,
    EventDrivenSimulator,
    EventFrustumDetector,
    FrustumDetector,
    Marking,
    detect_frustum,
)


def loop9lcd_scp(stages):
    """loop9lcd unrolled twice, abstract, on an SCP of ``stages`` —
    249 events and 153 places at depth 4."""
    graph = unroll_graph(KERNELS["loop9lcd"].translation().graph, 2)
    scp = build_sdsp_scp_pn(build_sdsp_pn(graph, include_io=False), stages)
    return scp, FifoRunPlacePolicy(scp.net, scp.run_place, scp.priority_order())


def count_markings(monkeypatch):
    built = []
    original = Marking.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Marking, "__init__", counting_init)
    return built


class TestNoCopiesPerEvent:
    @pytest.mark.parametrize("stages", [4, 8])
    def test_scp_detection_builds_a_constant_number_of_markings(
        self, stages, monkeypatch
    ):
        """One marking, for the frustum's state — not one per event
        and firing (973 for the 249 events of depth 4 before the
        token vector)."""
        scp, policy = loop9lcd_scp(stages)
        built = count_markings(monkeypatch)
        detector = EventFrustumDetector(scp.timed, scp.initial, policy)
        frustum = detector.detect(100_000)
        assert frustum.repeat_time > 200
        assert len(built) <= 2

    def test_event_engine_never_applies_marking_deltas(self, monkeypatch):
        def refuse(self, deltas):
            raise AssertionError("Marking.with_delta ran in the event engine")

        scp, policy = loop9lcd_scp(4)
        monkeypatch.setattr(Marking, "with_delta", refuse)
        frustum, _ = detect_frustum(scp.timed, scp.initial, policy, engine="event")
        assert frustum.length == 38


class TestStepsBuiltOnRead:
    def test_steps_are_built_when_first_read(self, monkeypatch):
        scp, policy = loop9lcd_scp(4)
        built = count_markings(monkeypatch)
        frustum, behavior = detect_frustum(
            scp.timed, scp.initial, policy, engine="event"
        )
        detected = len(built)
        firings = behavior.firings()
        assert len(built) == detected  # the compile path's read
        steps = behavior.steps
        assert len(built) == detected + len(steps)
        assert [(s.time, s.fired) for s in steps] == firings
        assert behavior.steps is steps  # built once

    def test_states_and_arcs_match_the_step_engine(self):
        """Every event step's state, newly marked places and arcs equal
        the step engine's at the same tick."""
        scp, policy = loop9lcd_scp(4)
        event = EventFrustumDetector(scp.timed, scp.initial, policy)
        event.detect(100_000)
        step = FrustumDetector(
            scp.timed,
            scp.initial,
            FifoRunPlacePolicy(scp.net, scp.run_place, scp.priority_order()),
        )
        step.detect(100_000)
        by_tick = {s.time: s for s in step.graph.steps}
        for level in event.graph.steps:
            twin = by_tick[level.time]
            assert (level.fired, level.newly_marked, level.state) == (
                twin.fired,
                twin.newly_marked,
                twin.state,
            )
        assert event.graph.consumptions == step.graph.consumptions
        assert event.graph.productions == step.graph.productions

    def test_advance_marking_and_snapshot_match_the_step_engine(self):
        """The public surface builds its objects from the token vector
        on demand: each event's record, and the marking and snapshot
        after it, equal the step engine's at the same tick."""
        scp, policy = loop9lcd_scp(4)
        event = EventDrivenSimulator(scp.timed, scp.initial, policy)
        step = EarliestFiringSimulator(
            scp.timed,
            scp.initial,
            FifoRunPlacePolicy(scp.net, scp.run_place, scp.priority_order()),
        )
        for _ in range(80):
            record = event.advance()
            while step.time < record.time:
                step.step()
            assert step.step() == record
            assert event.marking == step.marking
            assert event.snapshot() == step.snapshot()
