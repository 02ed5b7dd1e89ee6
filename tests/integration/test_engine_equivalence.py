"""Step vs event engine equivalence, and the cycle-time triangle.

The event-driven engine (:mod:`repro.petrinet.event_sim`) must be an
*exact* drop-in for the unit-time step simulator: same frustum
boundaries, same kernel, same rendered schedule, same occupancy — not
merely the same rates.  These tests pin that equivalence on every
paper kernel (both I/O modes), on the resource-constrained SCP model
under both conflict-resolution policies, on slow-transition nets where
the event engine actually skips time, and on randomized timed marked
graphs (including non-live and deadlocking ones, where even the error
messages must agree).

Howard's policy iteration is pinned against the enumeration and Lawler
cycle-time algorithms the same way, witness included.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.manifest import chain_source
from repro.core import (
    build_sdsp_pn,
    build_sdsp_scp_pn,
    derive_schedule,
)
from repro.core.attribution import place_occupancy
from repro.errors import AnalysisError, SimulationError
from repro.loops import KERNELS, parse_loop, translate
from repro.loops.unroll import unroll_graph
from repro.machine import FifoRunPlacePolicy, StaticPriorityPolicy
from repro.petrinet import (
    Marking,
    MarkedGraphView,
    PetriNet,
    TimedPetriNet,
    cycle_time_by_enumeration,
    cycle_time_howard,
    cycle_time_lawler,
    detect_frustum,
    howard_analysis,
)
from repro.report import render_schedule
from tests.conftest import L2_SOURCE
from tests.integration.test_property_based import loop_sources

ALL_KEYS = sorted(KERNELS)
UNROLL_SOURCES = {
    "loop9lcd": lambda: KERNELS["loop9lcd"].translation().graph,
    "chain8": lambda: translate(parse_loop(chain_source(8, False))).graph,
    "l2": lambda: translate(parse_loop(L2_SOURCE)).graph,
}


def both_engines(timed_net, initial, policy_factory=None, **kwargs):
    """Run frustum detection under both engines and return the pair."""
    policy_s = policy_factory() if policy_factory else None
    policy_e = policy_factory() if policy_factory else None
    step = detect_frustum(timed_net, initial, policy_s, engine="step", **kwargs)
    event = detect_frustum(timed_net, initial, policy_e, engine="event", **kwargs)
    return step, event


def assert_equivalent(step_result, event_result, instructions=None):
    (sf, sb), (ef, eb) = step_result, event_result
    assert (sf.start_time, sf.repeat_time) == (ef.start_time, ef.repeat_time)
    assert sf.state == ef.state
    assert sf.firing_counts == ef.firing_counts
    assert sf.schedule_steps == ef.schedule_steps
    ss = derive_schedule(sf, sb, instructions=instructions)
    es = derive_schedule(ef, eb, instructions=instructions)
    assert ss == es
    assert render_schedule(ss) == render_schedule(es)
    assert place_occupancy(sb, sf) == place_occupancy(eb, ef)
    # the point of the event engine: never more steps than the stepper
    assert len(eb.steps) <= len(sb.steps)


class TestEnginesOnPaperKernels:
    @pytest.mark.parametrize("key", ALL_KEYS)
    @pytest.mark.parametrize("include_io", [True, False], ids=["acode", "abstract"])
    def test_identical_frustum_and_schedule(self, key, include_io):
        pn = build_sdsp_pn(KERNELS[key].translation().graph, include_io=include_io)
        assert_equivalent(*both_engines(pn.timed, pn.initial))

    @pytest.mark.parametrize("key", ["loop1", "loop3", "loop5", "loop11"])
    @pytest.mark.parametrize("stages", [2, 8])
    def test_identical_under_fifo_policy(self, key, stages):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        scp = build_sdsp_scp_pn(pn, stages=stages)
        factory = lambda: FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        assert_equivalent(
            *both_engines(scp.timed, scp.initial, factory),
            instructions=scp.sdsp_transitions,
        )

    @pytest.mark.parametrize(
        "name, factor, include_io, stages",
        [
            ("loop9lcd", 2, False, 4),
            ("loop9lcd", 2, False, 8),
            ("chain8", 8, False, 4),
            ("chain8", 8, False, 8),
            ("l2", 4, True, 8),
        ],
    )
    def test_identical_under_fifo_policy_on_unrolled_nets(
        self, name, factor, include_io, stages
    ):
        """The unrolled SCP nets that are the slowest compiles of the
        seeded compile draws: wide FIFO queues, many dummy
        transitions, long transients."""
        graph = UNROLL_SOURCES[name]()
        pn = build_sdsp_pn(unroll_graph(graph, factor), include_io=include_io)
        scp = build_sdsp_scp_pn(pn, stages=stages)
        factory = lambda: FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        assert_equivalent(
            *both_engines(scp.timed, scp.initial, factory),
            instructions=scp.sdsp_transitions,
        )

    @pytest.mark.parametrize("key", ["loop1", "loop5", "loop9lcd"])
    @pytest.mark.parametrize("issue", [2, 3])
    def test_identical_under_fifo_policy_with_multi_cycle_issue(
        self, key, issue
    ):
        """Instructions that hold the run place for several cycles:
        transitions then become data-ready while the run place is
        empty, and the FIFO must queue them in arrival order under both
        engines (the event engine counts empty data places apart from
        the policy's resource place for this)."""
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        scp = build_sdsp_scp_pn(pn, stages=4)
        durations = dict(scp.durations)
        durations.update({t: issue for t in scp.sdsp_transitions})
        timed = TimedPetriNet(scp.net, durations)
        factory = lambda: FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        assert_equivalent(
            *both_engines(timed, scp.initial, factory),
            instructions=scp.sdsp_transitions,
        )

    @pytest.mark.parametrize("key", ["loop3", "loop11"])
    def test_identical_under_static_priority_policy(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        scp = build_sdsp_scp_pn(pn, stages=4)
        order = scp.priority_order()
        factory = lambda: StaticPriorityPolicy(order)
        assert_equivalent(
            *both_engines(scp.timed, scp.initial, factory),
            instructions=scp.sdsp_transitions,
        )


class TestEnginesUnderFifoOnGeneratedLoops:
    """The event engine offers the FIFO policy only the transitions
    whose empty data places dropped to none at an event; on generated
    loops, unrolled and pipelined at random depths, that must
    reproduce the step engine's full rescan exactly."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        source=loop_sources(),
        factor=st.integers(1, 3),
        stages=st.integers(1, 8),
        include_io=st.booleans(),
    )
    def test_identical_under_fifo_policy(self, source, factor, stages, include_io):
        graph = unroll_graph(translate(parse_loop(source)).graph, factor)
        scp = build_sdsp_scp_pn(
            build_sdsp_pn(graph, include_io=include_io), stages=stages
        )
        factory = lambda: FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        assert_equivalent(
            *both_engines(scp.timed, scp.initial, factory),
            instructions=scp.sdsp_transitions,
        )


class TestEnginesOnSlowNets:
    """Non-unit execution times create quiet ticks — the regime where
    the event engine genuinely jumps over time."""

    @pytest.mark.parametrize("tau", [2, 5, 16])
    def test_uniform_slowdown(self, tau):
        pn = build_sdsp_pn(KERNELS["loop3"].translation().graph)
        slow = TimedPetriNet(pn.net, {t: tau for t in pn.net.transition_names})
        step, event = both_engines(slow, pn.initial)
        assert_equivalent(step, event)
        # the stepper walks every tick; the event engine must not
        assert len(event[1].steps) < len(step[1].steps)

    def test_mixed_durations(self):
        pn = build_sdsp_pn(KERNELS["loop5"].translation().graph)
        durations = {
            t: 1 + (i % 5)
            for i, t in enumerate(pn.net.transition_names)
        }
        slow = TimedPetriNet(pn.net, durations)
        assert_equivalent(*both_engines(slow, pn.initial))


def random_timed_marked_graph(rng):
    """A small random strongly-connected timed marked graph."""
    n = rng.randint(2, 6)
    net = PetriNet(name="random")
    names = [f"t{i}" for i in range(n)]
    for name in names:
        net.add_transition(name)
    tokens = {}
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(0, n)):
        edges.append((rng.choice(names), rng.choice(names)))
    for index, (producer, consumer) in enumerate(edges):
        place = f"p{index}"
        net.add_place(place)
        net.add_arc(producer, place)
        net.add_arc(place, consumer)
        tokens[place] = rng.randint(0, 2)
    durations = {name: rng.randint(1, 6) for name in names}
    return TimedPetriNet(net, durations), Marking(tokens)


class TestEnginesOnRandomNets:
    def test_randomized_equivalence(self):
        """Both engines agree on 150 random nets — frustum or failure."""
        rng = random.Random(20260806)
        disagreements = []
        for trial in range(150):
            timed_net, initial = random_timed_marked_graph(rng)
            outcomes = []
            for engine in ("step", "event"):
                try:
                    frustum, behavior = detect_frustum(
                        timed_net, initial, engine=engine, max_steps=4000
                    )
                    outcomes.append(
                        (
                            frustum.start_time,
                            frustum.repeat_time,
                            frustum.state,
                            frustum.schedule_steps,
                            tuple(sorted(frustum.firing_counts.items())),
                        )
                    )
                except SimulationError as error:
                    outcomes.append(("error", str(error)))
            if outcomes[0] != outcomes[1]:
                disagreements.append((trial, outcomes))
        assert not disagreements, disagreements

    def test_unknown_engine_rejected(self):
        pn = build_sdsp_pn(KERNELS["loop1"].translation().graph)
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            detect_frustum(pn.timed, pn.initial, engine="warp")


class TestCycleTimeHowardTriangle:
    @pytest.mark.parametrize("key", ALL_KEYS)
    @pytest.mark.parametrize("include_io", [True, False], ids=["acode", "abstract"])
    def test_howard_matches_enumeration_and_lawler(self, key, include_io):
        pn = build_sdsp_pn(KERNELS[key].translation().graph, include_io=include_io)
        view = pn.view()
        enumerated = cycle_time_by_enumeration(view, pn.durations)
        assert cycle_time_howard(view, pn.durations) == enumerated
        assert cycle_time_lawler(view, pn.durations) == enumerated

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_howard_witness_attains_the_cycle_time(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        result = howard_analysis(pn.view(), pn.durations)
        if result.critical_cycle is not None:
            cycle = result.critical_cycle
            ratio = Fraction(
                cycle.value_sum(pn.durations), cycle.token_sum(pn.initial)
            )
            assert ratio == result.cycle_time
        else:
            assert result.critical_self_loop is not None
            duration = pn.durations[result.critical_self_loop]
            assert Fraction(duration) == result.cycle_time

    def test_howard_on_random_nets(self):
        rng = random.Random(42)
        for _ in range(120):
            timed_net, initial = random_timed_marked_graph(rng)
            view = MarkedGraphView(timed_net.net, initial)
            try:
                enumerated = cycle_time_by_enumeration(view, timed_net.durations)
            except AnalysisError:
                with pytest.raises(AnalysisError):
                    cycle_time_howard(
                        MarkedGraphView(timed_net.net, initial),
                        timed_net.durations,
                    )
                continue
            assert (
                cycle_time_howard(
                    MarkedGraphView(timed_net.net, initial), timed_net.durations
                )
                == enumerated
            )

    def test_howard_rejects_token_free_cycle(self):
        net = PetriNet(name="dead")
        net.add_transition("a")
        net.add_transition("b")
        for place, (src, dst) in {"p": ("a", "b"), "q": ("b", "a")}.items():
            net.add_place(place)
            net.add_arc(src, place)
            net.add_arc(place, dst)
        view = MarkedGraphView(net, Marking({}))
        with pytest.raises(AnalysisError, match="carries no token"):
            cycle_time_howard(view, {"a": 1, "b": 1})

    def test_howard_rejects_empty_net(self):
        view = MarkedGraphView(PetriNet(name="empty"), Marking({}))
        with pytest.raises(AnalysisError, match="no transitions"):
            cycle_time_howard(view, {})
