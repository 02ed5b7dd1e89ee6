"""Structured events: intra-step ordering, the Instrumentation hub and
the zero-overhead no-op default."""

import pytest

from repro.core import build_sdsp_pn
from repro.loops import parse_loop, translate
from repro.obs import (
    FiringCompleted,
    FiringStarted,
    FrustumDetected,
    Instrumentation,
    ListSink,
    NULL_INSTRUMENTATION,
    StateSnapshot,
)
from repro.petrinet import EarliestFiringSimulator, detect_frustum
from tests.conftest import L1_SOURCE


def l1_pn():
    return build_sdsp_pn(translate(parse_loop(L1_SOURCE)).graph, include_io=False)


@pytest.fixture
def traced_l1():
    pn = l1_pn()
    sink = ListSink()
    obs = Instrumentation(sinks=[sink])
    frustum, behavior = detect_frustum(pn.timed, pn.initial, instrumentation=obs)
    return pn, sink, frustum, behavior


class TestEventOrdering:
    def test_intra_step_order_is_completed_snapshot_started(self, traced_l1):
        """Within one time step the emission order mirrors the
        simulator's semantics: completions, then the canonical
        snapshot, then new firings."""
        _, sink, _, _ = traced_l1
        rank = {FiringCompleted: 0, StateSnapshot: 1, FiringStarted: 2}
        by_time = {}
        for event in sink.events:
            if type(event) in rank:
                by_time.setdefault(event.time, []).append(rank[type(event)])
        assert by_time, "no timed events recorded"
        for time, ranks in by_time.items():
            assert ranks == sorted(ranks), f"order violated at t={time}"

    def test_every_step_has_exactly_one_snapshot(self, traced_l1):
        _, sink, frustum, _ = traced_l1
        snapshots = [e for e in sink.events if isinstance(e, StateSnapshot)]
        assert [s.time for s in snapshots] == list(range(len(snapshots)))
        assert len(snapshots) == frustum.repeat_time + 1

    def test_firings_match_behavior_graph(self, traced_l1):
        """The event stream is the behavior graph: started-firing events
        coincide with the recorded steps."""
        _, sink, frustum, behavior = traced_l1
        fired_events = {}
        for event in sink.events:
            if isinstance(event, FiringStarted):
                fired_events.setdefault(event.time, set()).add(event.transition)
        for step in behavior.steps:
            assert fired_events.get(step.time, set()) == set(step.fired)

    def test_every_started_firing_completes(self, traced_l1):
        _, sink, frustum, _ = traced_l1
        started = [e for e in sink.events if isinstance(e, FiringStarted)]
        completed = {
            (e.time, e.transition)
            for e in sink.events
            if isinstance(e, FiringCompleted)
        }
        for event in started:
            if event.time + event.duration <= frustum.repeat_time:
                assert (event.time + event.duration, event.transition) in completed

    def test_frustum_detected_is_final_and_correct(self, traced_l1):
        _, sink, frustum, _ = traced_l1
        last = sink.events[-1]
        assert isinstance(last, FrustumDetected)
        assert last.start_time == frustum.start_time
        assert last.repeat_time == frustum.repeat_time
        assert last.period == frustum.length
        assert sum(isinstance(e, FrustumDetected) for e in sink.events) == 1


class TestEventPayloads:
    def test_to_dict_tags_the_event_type(self):
        event = FiringStarted(3, "A", 1)
        assert event.to_dict() == {
            "event": "FiringStarted",
            "time": 3,
            "transition": "A",
            "duration": 1,
        }

    def test_events_are_frozen(self):
        event = FrustumDetected(2, 5, 3)
        with pytest.raises(Exception):
            event.period = 4


class TestInstrumentationHub:
    def test_fans_out_to_all_sinks(self):
        first, second = ListSink(), ListSink()
        obs = Instrumentation(sinks=[first])
        obs.add_sink(second)
        obs.emit(FrustumDetected(2, 5, 3))
        assert len(first) == 1 and len(second) == 1

    def test_truthiness_gates_the_hot_path(self):
        assert Instrumentation()
        assert not NULL_INSTRUMENTATION


class TestNoOpDefault:
    def test_null_instrumentation_discards_events(self):
        NULL_INSTRUMENTATION.emit(FrustumDetected(2, 5, 3))  # must not raise
        assert NULL_INSTRUMENTATION.sinks == []

    def test_null_refuses_sinks(self):
        with pytest.raises(ValueError):
            NULL_INSTRUMENTATION.add_sink(ListSink())

    def test_uninstrumented_simulation_produces_zero_events(self):
        """Regression: the default path must not build or buffer any
        event anywhere (simulator keeps no observer)."""
        pn = l1_pn()
        for obs in (None, NULL_INSTRUMENTATION):
            simulator = EarliestFiringSimulator(
                pn.timed, pn.initial, instrumentation=obs
            )
            assert simulator._obs is None
            for _ in range(6):
                simulator.step()

    def test_detection_results_identical_with_and_without_tracing(self):
        pn = l1_pn()
        plain_frustum, plain_behavior = detect_frustum(pn.timed, pn.initial)
        obs = Instrumentation(sinks=[ListSink()])
        traced_frustum, traced_behavior = detect_frustum(
            pn.timed, pn.initial, instrumentation=obs
        )
        assert plain_frustum.start_time == traced_frustum.start_time
        assert plain_frustum.repeat_time == traced_frustum.repeat_time
        assert plain_frustum.firing_counts == traced_frustum.firing_counts
        assert [s.fired for s in plain_behavior.steps] == [
            s.fired for s in traced_behavior.steps
        ]
