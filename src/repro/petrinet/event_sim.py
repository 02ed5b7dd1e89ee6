"""Event-driven simulation engine: completion-heap execution of timed
Petri nets under the earliest firing rule.

:class:`~repro.petrinet.simulator.EarliestFiringSimulator` advances in
unit time steps — its cost is proportional to elapsed *time*, which the
theory only bounds by O(n⁴) (Theorem 4.1.2).  The engine in this module
exploits a structural fact of the earliest firing rule to do work
proportional to *firings* instead:

**Gap theorem.**  After the greedy-with-re-check firing loop of a step,
no transition is both enabled and idle (each candidate either fired or
was found disabled, and firings only *consume* tokens, so a rejected
candidate cannot become enabled again within the step).  Tokens are
deposited and transitions become idle only when a firing *completes*.
Hence nothing can start at a time instant with no completion: between
two consecutive completion instants the marking, the in-flight set and
(for gap-invariant policies, see
:class:`~repro.petrinet.simulator.ConflictResolutionPolicy.begin_step`)
the policy state are all frozen.  The only *event times* are 0 and the
completion instants, and it suffices to simulate those.

:class:`EventDrivenSimulator` therefore keeps a heap of completion
times and jumps directly from event to event, producing at each event
exactly the :class:`~repro.petrinet.simulator.StepRecord` the step
simulator would produce at that tick — same completions, same snapshot,
same conflict offers to the policy, same firings, same instrumentation
events.

**State without copies.**  The engine's marking is one mutable token
vector indexed by place, and each transition carries a count of its
empty input places, updated by every token delta; a transition is
enabled iff its count is 0, an O(1) test.  For a policy that observes
the net it also counts the empty inputs outside the policy's
``resource_places`` (the FIFO's data places).  By the gap theorem a
transition can only become enabled (or ready, for the policy) at an
event where it completes or its count reaches 0, so only those
transitions are looked at, and the policy is offered only those.
No :class:`~repro.petrinet.marking.Marking` is built per event: the
snapshot of an event is the compact key ``(token tuple, residuals,
policy key)``, and :class:`~repro.petrinet.timed.InstantaneousState`
objects are built from such keys only for the frustum, for
:meth:`EventDrivenSimulator.advance`'s record, or when a behavior-graph
step is first read.  Instrumentation reads the same vector, so
instrumented and plain runs share one code path.

:class:`EventFrustumDetector` detects the cyclic frustum on top of
this: it keys a dict by the snapshot of every *event* (one insert per
event instead of one per tick; the dict compares keys exactly on a
hash match, so a collision cannot fake a frustum) and, on the first
repeated event state, reconstructs the exact step-simulator answer.
States at gap times are recovered analytically (the marking is the
post-firing marking of the previous event; the residuals are absolute
completion times minus the queried instant), so the minimal transient
``ρ`` is found by walking the candidate breakpoints backwards — the
resulting frustum, kernel and schedule are bit-identical to the step
engine's.  See ``docs/ARCHITECTURE.md`` for the full argument.

>>> from repro.petrinet import PetriNet, Marking, TimedPetriNet
>>> from repro.petrinet import detect_frustum
>>> net = PetriNet("ring")
>>> for t in ("a", "b"):
...     _ = net.add_transition(t)
>>> for p, src, dst in (("ab", "a", "b"), ("ba", "b", "a")):
...     _ = net.add_place(p)
...     _ = net.add_arc(src, p)
...     _ = net.add_arc(p, dst)
>>> timed = TimedPetriNet(net, {"a": 3, "b": 2})
>>> step_f, _ = detect_frustum(timed, Marking({"ba": 1}), engine="step")
>>> event_f, _ = detect_frustum(timed, Marking({"ba": 1}), engine="event")
>>> (step_f.start_time, step_f.repeat_time) == (event_f.start_time, event_f.repeat_time)
True
>>> step_f.schedule_steps == event_f.schedule_steps
True
"""

from __future__ import annotations

import bisect
import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from ..obs.events import (
    FiringCompleted,
    FiringStarted,
    FrustumDetected,
    Instrumentation,
    StateSnapshot,
)
from .behavior import BehaviorGraph, CyclicFrustum
from .marking import Marking
from .net import PetriNet
from .simulator import ConflictResolutionPolicy, FireAllPolicy, StepRecord
from .timed import InstantaneousState, TimedPetriNet

__all__ = ["EventDrivenSimulator", "EventFrustumDetector"]

# The snapshot of one event: token count per place (in the net's place
# order), the sorted ``(transition, remaining)`` residuals, and the
# policy key — an InstantaneousState's content without the Marking.
StateKey = Tuple[Tuple[int, ...], Tuple[Tuple[str, int], ...], Tuple]


class EventDrivenSimulator:
    """Event-jumping executor for a :class:`TimedPetriNet`.

    The constructor signature matches
    :class:`~repro.petrinet.simulator.EarliestFiringSimulator`; the
    difference is purely in how time advances: :meth:`advance` processes
    the *next event* (time 0, then each completion instant) and returns
    the very :class:`~repro.petrinet.simulator.StepRecord` the step
    simulator would have produced at that tick.  Ticks in between carry
    no completions and — by the gap theorem in the module docstring —
    no firings either, so skipping them loses nothing.

    Policies are offered candidates in the same order as under the step
    engine (the net's transition declaration order) and with the same
    greedy re-check, so conflict resolution is identical.  A policy that
    overrides ``begin_step`` is called once per event, with only the
    idle transitions that became ready at that event; it must be
    *gap-invariant* (see
    :meth:`~repro.petrinet.simulator.ConflictResolutionPolicy.begin_step`)
    for the two engines to coincide — both shipped policies are.

    :attr:`marking` and :meth:`snapshot` build their objects from the
    token vector when called; nothing per event builds one.
    """

    def __init__(
        self,
        timed_net: TimedPetriNet,
        initial: Marking,
        policy: Optional[ConflictResolutionPolicy] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.timed_net = timed_net
        self.net: PetriNet = timed_net.net
        self.policy = policy if policy is not None else FireAllPolicy()
        self._obs: Optional[Instrumentation] = (
            instrumentation if instrumentation else None
        )
        self._initial = initial
        net = self.net
        # Static structure, precomputed once.
        self._places: Tuple[str, ...] = tuple(net.place_names)
        self._pindex: Dict[str, int] = {
            p: i for i, p in enumerate(self._places)
        }
        self._sorted_places = tuple(sorted(self._places))
        self._tindex: Dict[str, int] = {
            t: i for i, t in enumerate(net.transition_names)
        }
        self._inputs: Dict[str, Tuple[str, ...]] = {
            t: tuple(net.input_places(t)) for t in net.transition_names
        }
        self._outputs: Dict[str, Tuple[str, ...]] = {
            t: tuple(net.output_places(t)) for t in net.transition_names
        }
        self._consumers: Dict[str, Tuple[str, ...]] = {
            p: tuple(net.output_transitions(p)) for p in self._places
        }
        # Only call begin_step on policies that actually override it;
        # the base implementation is a documented no-op and skipping it
        # saves building the per-event offer.  Such a policy's readiness
        # ignores its resource places, so the engine counts, beside the
        # empty inputs, the empty inputs outside them: their consumers
        # are the "data" consumers of a place.
        self._policy_observes = (
            type(self.policy).begin_step is not ConflictResolutionPolicy.begin_step
        )
        resources = set(self.policy.resource_places)
        self._data_consumers: Dict[str, Tuple[str, ...]] = {
            p: (
                consumers
                if self._policy_observes and p not in resources
                else ()
            )
            for p, consumers in self._consumers.items()
        }
        self.reset()

    def reset(self) -> None:
        """Return to time 0 with the initial marking, an empty
        completion heap and no in-flight firings."""
        self.time = 0
        self._started = False
        # The token vector: place -> count, every place of the net in
        # place order, so its values() are the marking as a tuple.
        self._tokens: Dict[str, int] = {p: self._initial[p] for p in self._places}
        tokens = self._tokens
        # transition -> number of its input places holding no token,
        # and the same count over its data inputs (see __init__)
        self._empty: Dict[str, int] = {
            t: sum(1 for p in inputs if not tokens[p])
            for t, inputs in self._inputs.items()
        }
        self._empty_data: Dict[str, int] = {t: 0 for t in self._inputs}
        for place, consumers in self._data_consumers.items():
            if not tokens[place]:
                for consumer in consumers:
                    self._empty_data[consumer] += 1
        # transition -> absolute completion time, mirrored in a heap of
        # (completion time, transition) pairs; non-reentrance keeps at
        # most one heap entry per transition, so no lazy deletion.
        self._in_flight: Dict[str, int] = {}
        self._heap: List[Tuple[int, str]] = []
        self.total_firings: Dict[str, int] = {
            t: 0 for t in self.net.transition_names
        }
        # Token provenance (see EarliestFiringSimulator.reset): per-place
        # FIFO of (birth time, producer), kept only when instrumented.
        # Completions append in sorted order and firings pop in firing
        # order — identical to the step engine, so both engines attach
        # byte-identical FiringStarted.consumed provenance.
        self._births: Optional[Dict[str, List[Tuple[int, str]]]] = (
            {p: [(0, "")] * count for p, count in tokens.items()}
            if self._obs is not None
            else None
        )
        self.policy.reset()
        self._check_policy_key()

    def _check_policy_key(self) -> None:
        """Fail fast on unhashable policy keys, exactly like the step
        simulator (frustum detection hashes instantaneous states)."""
        key = self.policy.state_key()
        try:
            hash(key)
        except TypeError:
            raise SimulationError(
                f"policy {type(self.policy).__name__} returned an unhashable "
                f"state_key {key!r}; frustum detection hashes the "
                "instantaneous state (marking, residuals, policy key), so "
                "state_key() must return a hashable tuple"
            ) from None

    # ------------------------------------------------------------------
    # State inspection (same surface as EarliestFiringSimulator)
    # ------------------------------------------------------------------
    @property
    def marking(self) -> Marking:
        """The current marking, built from the token vector."""
        return self._marking_of(self._tokens.values())

    def _marking_of(self, counts: Iterable[int]) -> Marking:
        return Marking({p: count for p, count in zip(self._places, counts) if count})

    def _state_of(self, key: StateKey) -> InstantaneousState:
        """The instantaneous state a snapshot key stands for."""
        tokens, residuals, policy_key = key
        return InstantaneousState(self._marking_of(tokens), residuals, policy_key)

    @property
    def in_flight(self) -> Dict[str, int]:
        """Copy of the map from busy transitions to completion times."""
        return dict(self._in_flight)

    def residuals(self) -> Dict[str, int]:
        """Remaining execution time per busy transition, relative to the
        current time."""
        return {t: finish - self.time for t, finish in self._in_flight.items()}

    def snapshot(self) -> InstantaneousState:
        """Instantaneous state at the current time (between events the
        marking and policy key are frozen; only residuals shift)."""
        return InstantaneousState.make(
            self.marking, self.residuals(), self.policy.state_key()
        )

    def is_deadlocked(self) -> bool:
        """No in-flight work and nothing enabled."""
        return not self._in_flight and not self._enabled_idle()

    def next_event_time(self) -> Optional[int]:
        """Time of the next event :meth:`advance` would process: 0
        before the first call, else the earliest pending completion;
        ``None`` when nothing is in flight (no further events ever)."""
        if not self._started:
            return 0
        if not self._heap:
            return None
        return self._heap[0][0]

    def _enabled_idle(self) -> List[str]:
        empty = self._empty
        return [
            t
            for t in self.net.transition_names
            if not empty[t] and t not in self._in_flight
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def advance(self) -> StepRecord:
        """Jump to the next event and process it (completions, policy
        observation, snapshot, firings — the step simulator's intra-step
        order).  Raises :class:`SimulationError` when no event is
        pending (the net is deadlocked or permanently idle)."""
        now, completed, fired, key = self._event()
        return StepRecord(now, completed, fired, self._state_of(key))

    def _event(self) -> Tuple[int, Tuple[str, ...], Tuple[str, ...], StateKey]:
        """Process the next event; returns its time, completed and fired
        transitions, and the snapshot key taken between the two."""
        obs = self._obs
        heap = self._heap
        in_flight = self._in_flight
        tokens = self._tokens
        empty = self._empty
        if self._started:
            if not heap:
                raise SimulationError(
                    "no pending completions: the net is deadlocked or idle"
                )
            now = heap[0][0]
        else:
            now = 0
            self._started = True

        # 1. completions (every heap entry due now; equal times pop in
        # name order, so `completed` comes out sorted).  By the gap
        # theorem nothing was enabled+idle after the previous event's
        # firing loop, so a transition enabled now either completed now
        # or had its empty-input count reach 0 now ("woke"); likewise a
        # transition the policy newly sees as ready either completed or
        # had its empty-data-input count reach 0 ("ready").
        completed_list: List[str] = []
        woke: List[str] = []
        ready: List[str] = []
        outputs = self._outputs
        consumers = self._consumers
        data_consumers = self._data_consumers
        empty_data = self._empty_data
        while heap and heap[0][0] == now:
            transition = heapq.heappop(heap)[1]
            completed_list.append(transition)
            del in_flight[transition]
            for place in outputs[transition]:
                if not tokens[place]:
                    for consumer in consumers[place]:
                        empty[consumer] -= 1
                        if not empty[consumer]:
                            woke.append(consumer)
                    for consumer in data_consumers[place]:
                        empty_data[consumer] -= 1
                        if not empty_data[consumer]:
                            ready.append(consumer)
                tokens[place] += 1
        completed = tuple(completed_list)
        if completed and obs is not None:
            births = self._births
            for transition in completed:
                for place in outputs[transition]:
                    births[place].append((now, transition))
                obs.emit(
                    FiringCompleted(
                        now, transition, self.timed_net.duration(transition)
                    )
                )

        # Candidates and the policy's offer: idle, in declaration order.
        # At time 0 nothing has completed and everything is idle.
        policy = self.policy
        if completed:
            order = self._tindex.__getitem__
            woke.extend(completed)
            candidates = sorted(
                {t for t in woke if not empty[t] and t not in in_flight},
                key=order,
            )
            if self._policy_observes:
                ready.extend(completed)
                offer = sorted(
                    {t for t in ready if not empty_data[t] and t not in in_flight},
                    key=order,
                )
        else:
            offer = list(self.net.transition_names)
            candidates = [t for t in offer if not empty[t]]

        # 2. snapshot (also lets the policy observe the state)
        if self._policy_observes:
            policy.begin_step(now, tokens, offer)
        key: StateKey = (
            tuple(tokens.values()),
            tuple(sorted([(t, finish - now) for t, finish in in_flight.items()])),
            policy.state_key(),
        )
        if obs is not None:
            obs.emit(
                StateSnapshot(
                    now,
                    tuple(
                        (p, tokens[p]) for p in self._sorted_places if tokens[p]
                    ),
                    key[1],
                    key[2],
                )
            )

        # 3. firings, greedy with re-check in policy order
        fired: List[str] = []
        inputs = self._inputs
        durations = self.timed_net.durations
        for transition in policy.order(candidates):
            if transition in in_flight or empty[transition]:
                continue  # lost a structural conflict earlier this event
            duration = durations[transition]
            if duration < 1:
                raise SimulationError(
                    f"transition {transition!r} has non-positive firing "
                    f"duration {duration}; durations must be >= 1 (was the "
                    "TimedPetriNet.durations mapping mutated?)"
                )
            for place in inputs[transition]:
                tokens[place] -= 1
                if not tokens[place]:
                    for consumer in consumers[place]:
                        empty[consumer] += 1
                    for consumer in data_consumers[place]:
                        empty_data[consumer] += 1
            finish = now + duration
            in_flight[transition] = finish
            heapq.heappush(heap, (finish, transition))
            self.total_firings[transition] += 1
            policy.notify_fired(transition)
            fired.append(transition)
            if obs is not None:
                births = self._births
                consumed = tuple(
                    (place, *births[place].pop(0))
                    for place in inputs[transition]
                )
                obs.emit(FiringStarted(now, transition, duration, consumed))

        self.time = now + 1
        return now, completed, tuple(fired), key

    def run(
        self,
        max_events: int,
        stop: Optional[Callable[[StepRecord], bool]] = None,
    ) -> List[StepRecord]:
        """Process up to ``max_events`` events, stopping early on
        deadlock or when ``stop(record)`` returns True.  Raises
        :class:`SimulationError` if a stop condition was requested but
        never met within the budget."""
        records: List[StepRecord] = []
        for _ in range(max_events):
            if self.is_deadlocked():
                return records
            record = self.advance()
            records.append(record)
            if stop is not None and stop(record):
                return records
        if stop is not None:
            raise SimulationError(
                f"stop condition not reached within {max_events} events"
            )
        return records


class EventFrustumDetector:
    """Cyclic-frustum detection on the event-driven engine.

    Bit-compatible with :class:`~repro.petrinet.behavior.FrustumDetector`:
    the returned :class:`~repro.petrinet.behavior.CyclicFrustum` has the
    same ``start_time``/``repeat_time``/``state``/``schedule_steps``/
    ``firing_counts``, and :attr:`graph` records the same consumption and
    production arcs (its ``steps`` list only contains event ticks — gap
    ticks fire nothing, which every downstream consumer treats as
    equivalent).

    Detection keys a dict by the snapshot of each event.  The first
    repeated *event* state fixes the exact period ``p`` (within one
    steady-state period all states are distinct, so the first event-level
    match is exactly one period apart); the minimal transient ``ρ`` is
    then recovered by evaluating ``s(t) == s(t+p)`` backwards over the
    finitely many *breakpoints* where that predicate can change — the
    instants adjacent to an event on either side of the comparison.
    Between breakpoints both sides shift their residuals in lockstep, so
    the predicate is constant there and the walk is exact.  The walk
    compares snapshot keys; one instantaneous state is built, for the
    frustum.
    """

    def __init__(
        self,
        timed_net: TimedPetriNet,
        initial: Marking,
        policy: Optional[ConflictResolutionPolicy] = None,
        record_arcs: bool = True,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.simulator = EventDrivenSimulator(
            timed_net, initial, policy, instrumentation=instrumentation
        )
        self._obs: Optional[Instrumentation] = (
            instrumentation if instrumentation else None
        )
        self.record_arcs = record_arcs
        self.graph = BehaviorGraph(
            timed_net, initial, record_arcs, state_of=self.simulator._state_of
        )
        self._seen: Dict[StateKey, int] = {}
        self._times: List[int] = []
        # Per event: the fired transitions, the snapshot key, and the
        # policy key *after* the firing loop — the key every gap tick up
        # to the next event carries (gap-invariant policies observe
        # nothing new in gaps).
        self._records: List[Tuple[Tuple[str, ...], StateKey, Tuple]] = []

    def detect(self, max_steps: int) -> CyclicFrustum:
        """Advance event by event until an instantaneous state repeats;
        raises :class:`SimulationError` on deadlock or when the next
        event lies beyond ``max_steps`` (same budget semantics and
        messages as the step detector)."""
        sim = self.simulator
        seen = self._seen
        policy = sim.policy
        record = self.graph.record
        while True:
            if not sim._started:
                if sim.is_deadlocked():
                    raise SimulationError(
                        "net deadlocked at time 0 before a cyclic frustum "
                        "appeared"
                    )
                next_time = 0
            elif not sim._in_flight:
                # Nothing in flight after an event: the step simulator
                # would sit at the next tick with nothing enabled
                # (firing loops leave nothing enabled+idle) and report
                # deadlock there.
                if sim.time > max_steps:
                    raise SimulationError(
                        "no repeated instantaneous state within "
                        f"{max_steps} time steps"
                    )
                raise SimulationError(
                    f"net deadlocked at time {sim.time} before a cyclic "
                    "frustum appeared"
                )
            else:
                next_time = sim._heap[0][0]
            if next_time > max_steps:
                raise SimulationError(
                    f"no repeated instantaneous state within {max_steps} "
                    "time steps"
                )
            now, completed, fired, key = sim._event()
            first = seen.get(key)
            if first is not None:
                return self._finish(first, now)
            seen[key] = len(self._records)
            self._times.append(now)
            self._records.append((fired, key, policy.state_key()))
            record(now, completed, fired, key)

    # ------------------------------------------------------------------
    # Exact reconstruction
    # ------------------------------------------------------------------
    def _state_at(self, t: int) -> StateKey:
        """The snapshot key at any simulated tick ``t`` (event or gap),
        reconstructed from the nearest preceding event."""
        i = bisect.bisect_right(self._times, t) - 1
        time = self._times[i]
        fired, key, post_key = self._records[i]
        if time == t:
            return key
        # Gap tick: marking/key are the previous event's post-firing
        # values; residuals are absolute completion times minus t (all
        # positive — every pending completion is a *later* event).
        sim = self.simulator
        tokens, residuals, _ = key
        if fired:
            counts = list(tokens)
            for transition in fired:
                for place in sim._inputs[transition]:
                    counts[sim._pindex[place]] -= 1
            tokens = tuple(counts)
        durations = sim.timed_net.durations
        shifted = [(name, time + remaining - t) for name, remaining in residuals]
        shifted.extend(
            (transition, time + durations[transition] - t) for transition in fired
        )
        return (
            tokens,
            tuple(sorted(pair for pair in shifted if pair[1] > 0)),
            post_key,
        )

    def _finish(self, first_index: int, final_time: int) -> CyclicFrustum:
        e1 = self._times[first_index]
        period = final_time - e1
        # Minimal transient: s(t) == s(t+p) holds on a suffix [ρ, ∞) and
        # can only change value at a breakpoint — an event time or the
        # tick right after one, on either side of the comparison.
        breakpoints = {0}
        for time in self._times:
            for candidate in (time, time + 1, time - period, time - period + 1):
                if 0 <= candidate < e1:
                    breakpoints.add(candidate)
        rho = e1
        for b in sorted(breakpoints, reverse=True):
            if self._state_at(b) == self._state_at(b + period):
                rho = b
            else:
                break
        repeat = rho + period

        schedule_steps: List[Tuple[int, Tuple[str, ...]]] = [
            (t, ()) for t in range(rho, repeat)
        ]
        firing_counts: Dict[str, int] = {}
        for time, (fired, _key, _post) in zip(self._times, self._records):
            if rho <= time < repeat and fired:
                schedule_steps[time - rho] = (time, fired)
                for transition in fired:
                    firing_counts[transition] = firing_counts.get(transition, 0) + 1

        if self._obs is not None:
            self._obs.emit(
                FrustumDetected(
                    start_time=rho, repeat_time=repeat, period=period
                )
            )
        return CyclicFrustum(
            start_time=rho,
            repeat_time=repeat,
            state=self.simulator._state_of(self._state_at(rho)),
            schedule_steps=schedule_steps,
            firing_counts=firing_counts,
        )
