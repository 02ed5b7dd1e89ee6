"""Behavior graphs and cyclic-frustum detection (Section 3.3).

A *behavior graph* is the trace generated while executing a timed Petri
net under the earliest firing rule: at each time step it records the
newly marked places and the set of transitions fired at that step, with
arcs for token consumption (place instance → transition instance) and
production (transition instance → place instance).

The key observation of the paper (Lemmas 3.3.1/3.3.2) is that the
behavior graph of an SDSP-PN is unique and eventually repeats an
*instantaneous state*; the segment between two consecutive occurrences
of a repeated state is the **cyclic frustum** (Definition 3.3.1), from
which the steady-state equivalent net and a time-optimal schedule are
derived.  Detection is a hash-map lookup per snapshot.  The step
engine snapshots every tick and builds a :class:`Marking` for each, so
finding the frustum costs O(detected time × net size) interpreted
work; the event engine (:mod:`repro.petrinet.event_sim`) snapshots
only event instants and keys each by a copy of its token vector, so it
costs O(events × net size), the net-size factor being one C-level
tuple copy and hash per event.

A :class:`BehaviorGraph` records only the trace eagerly — time,
completed and fired transitions, and a state source per level — and
builds its steps and consumption/production arcs when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..obs.events import FrustumDetected, Instrumentation
from ..obs.metrics import timed
from .marking import Marking
from .simulator import (
    ConflictResolutionPolicy,
    EarliestFiringSimulator,
    StepRecord,
)
from .timed import InstantaneousState, TimedPetriNet

__all__ = [
    "PlaceInstance",
    "TransitionInstance",
    "BehaviorStep",
    "BehaviorGraph",
    "CyclicFrustum",
    "FrustumDetector",
    "detect_frustum",
]


@dataclass(frozen=True)
class PlaceInstance:
    """A token birth: ``place`` became marked at ``time`` (time 0 births
    are the initial marking)."""

    place: str
    time: int


@dataclass(frozen=True)
class TransitionInstance:
    """A firing: ``transition`` started executing at ``time``."""

    transition: str
    time: int


@dataclass(frozen=True)
class BehaviorStep:
    """One level of the behavior graph."""

    time: int
    fired: Tuple[str, ...]
    newly_marked: Tuple[str, ...]
    state: InstantaneousState


class BehaviorGraph:
    """The recorded trace: levels plus consumption/production arcs.

    ``consumptions`` maps each :class:`TransitionInstance` to the place
    instances whose tokens it consumed; ``productions`` maps it to the
    place instances it created.  Tokens are matched FIFO per place,
    which is exact for safe nets (at most one token is ever pending per
    place) and a faithful queueing interpretation otherwise.

    Recording is O(1) per level: :meth:`record` keeps the level's time,
    its completed and fired transitions, and a *state source* — the
    :class:`~repro.petrinet.timed.InstantaneousState` itself, or an
    engine's compact state key that ``state_of`` turns into one.
    :attr:`steps`, :attr:`consumptions` and :attr:`productions` are
    built from that trace when first read (and extended if recording
    continues), so a compile, which only reads :meth:`firings`, never
    builds a per-level state or arc.
    """

    def __init__(
        self,
        timed_net: TimedPetriNet,
        initial: Marking,
        record_arcs: bool = True,
        state_of: Optional[Callable[[Any], InstantaneousState]] = None,
    ) -> None:
        self._timed_net = timed_net
        self._initial = initial
        self.record_arcs = record_arcs
        self._state_of = state_of
        self._trace: List[Tuple[int, Tuple[str, ...], Tuple[str, ...], Any]] = []
        self._steps: List[BehaviorStep] = []
        self._consumptions: Dict[TransitionInstance, Tuple[PlaceInstance, ...]] = {}
        self._productions: Dict[TransitionInstance, Tuple[PlaceInstance, ...]] = {}
        # FIFO queues of pending token birth times, per place; created
        # on the first build.
        self._pending: Optional[Dict[str, List[int]]] = None

    def record(
        self,
        time: int,
        completed: Tuple[str, ...],
        fired: Tuple[str, ...],
        state: Any,
    ) -> None:
        """Append one level; ``state`` is an instantaneous state or,
        when the graph has a ``state_of``, the key it is built from."""
        self._trace.append((time, completed, fired, state))

    @property
    def steps(self) -> List[BehaviorStep]:
        self._build()
        return self._steps

    @property
    def consumptions(self) -> Dict[TransitionInstance, Tuple[PlaceInstance, ...]]:
        self._build()
        return self._consumptions

    @property
    def productions(self) -> Dict[TransitionInstance, Tuple[PlaceInstance, ...]]:
        self._build()
        return self._productions

    def _build(self) -> None:
        """Build the levels and arcs the trace holds beyond those
        already built."""
        if len(self._steps) == len(self._trace):
            return
        net = self._timed_net.net
        durations = self._timed_net.durations
        if self._pending is None:
            self._pending = {p: [0] * self._initial[p] for p in net.place_names}
        pending = self._pending
        state_of = self._state_of
        for time, completed, fired, state in self._trace[len(self._steps):]:
            newly_marked: List[str] = []
            for transition in completed:
                instance = TransitionInstance(transition, time - durations[transition])
                produced = []
                for place in net.output_places(transition):
                    pending[place].append(time)
                    produced.append(PlaceInstance(place, time))
                    newly_marked.append(place)
                if self.record_arcs:
                    self._productions[instance] = tuple(produced)
            for transition in fired:
                consumed = tuple(
                    PlaceInstance(place, pending[place].pop(0))
                    for place in net.input_places(transition)
                )
                if self.record_arcs:
                    self._consumptions[TransitionInstance(transition, time)] = consumed
            self._steps.append(
                BehaviorStep(
                    time,
                    fired,
                    tuple(newly_marked),
                    state if state_of is None else state_of(state),
                )
            )

    def firings(self) -> List[Tuple[int, Tuple[str, ...]]]:
        """``(time, fired)`` for every recorded level, read off the
        trace without building a step."""
        return [(time, fired) for time, _completed, fired, _state in self._trace]

    def fired_between(self, start: int, stop: int) -> List[Tuple[int, Tuple[str, ...]]]:
        """``(time, fired)`` pairs for steps with ``start <= time < stop``."""
        return [
            (time, fired)
            for time, _completed, fired, _state in self._trace
            if start <= time < stop
        ]

    def firing_counts(self, start: int, stop: int) -> Dict[str, int]:
        """How many times each transition fires in ``[start, stop)``."""
        counts: Dict[str, int] = {}
        for _, fired in self.fired_between(start, stop):
            for transition in fired:
                counts[transition] = counts.get(transition, 0) + 1
        return counts


@dataclass
class CyclicFrustum:
    """The repeating segment of a behavior graph.

    Attributes mirror the measurement columns of Tables 1 and 2:

    * ``start_time`` — when the initial instantaneous state is first
      seen (the paper's *start time*);
    * ``repeat_time`` — when that state recurs (*repeat time*);
    * ``length`` — ``repeat_time - start_time`` (*length of frustum*),
      the initiation period ``p`` of the steady-state schedule;
    * ``firing_counts`` — occurrences of each transition inside the
      frustum (*transition count*);
    * ``state`` — the repeated instantaneous state itself.
    """

    start_time: int
    repeat_time: int
    state: InstantaneousState
    schedule_steps: List[Tuple[int, Tuple[str, ...]]]
    firing_counts: Dict[str, int]

    @property
    def length(self) -> int:
        return self.repeat_time - self.start_time

    def transition_count(self, transition: Optional[str] = None) -> int:
        """Count for one transition, or the common count when uniform.

        For marked graphs the frustum is a cyclic firing sequence, so by
        Theorem A.5.3 every transition fires the same number of times;
        asking for the common count on a non-uniform frustum raises.
        """
        if transition is not None:
            return self.firing_counts.get(transition, 0)
        counts = set(self.firing_counts.values())
        if len(counts) != 1:
            raise SimulationError(
                "transition counts are not uniform across the frustum; "
                f"distinct counts: {sorted(counts)}"
            )
        return counts.pop()

    def computation_rate(self, transition: str) -> Fraction:
        """Average firings per time unit inside the frustum — the
        paper's *computation rate* column.

        A transition the frustum never recorded raises instead of
        reporting a silent rate of 0 — the only way a live marked
        graph's steady state omits a transition is a caller asking
        about the wrong net."""
        if self.length == 0:
            raise SimulationError("empty frustum has no computation rate")
        if transition not in self.firing_counts:
            raise SimulationError(
                f"transition {transition!r} does not appear in the "
                "frustum's firing counts"
            )
        return Fraction(self.firing_counts[transition], self.length)

    def uniform_rate(self) -> Fraction:
        """The common computation rate (requires uniform counts)."""
        return Fraction(self.transition_count(), self.length)


class FrustumDetector:
    """Runs the earliest-firing simulation, records the behavior graph,
    and stops at the first repeated instantaneous state."""

    def __init__(
        self,
        timed_net: TimedPetriNet,
        initial: Marking,
        policy: Optional[ConflictResolutionPolicy] = None,
        record_arcs: bool = True,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.simulator = EarliestFiringSimulator(
            timed_net, initial, policy, instrumentation=instrumentation
        )
        self._obs: Optional[Instrumentation] = (
            instrumentation if instrumentation else None
        )
        self.record_arcs = record_arcs
        self.graph = BehaviorGraph(timed_net, initial, record_arcs)
        self._seen: Dict[InstantaneousState, int] = {}

    def _record_step(self, record: StepRecord) -> None:
        self.graph.record(record.time, record.completed, record.fired, record.state)

    def detect(self, max_steps: int) -> CyclicFrustum:
        """Advance until an instantaneous state repeats.

        Raises :class:`SimulationError` on deadlock or when ``max_steps``
        is exhausted — by Lemma 3.3.2 a repeat always exists for live,
        safe nets, and the theory bounds it by O(n⁴) time steps, so a
        generous budget never fires spuriously.
        """
        while self.simulator.time <= max_steps:
            if self.simulator.is_deadlocked():
                raise SimulationError(
                    f"net deadlocked at time {self.simulator.time} before a "
                    "cyclic frustum appeared"
                )
            record = self.simulator.step()
            first_seen = self._seen.get(record.state)
            if first_seen is not None:
                if self._obs is not None:
                    self._obs.emit(
                        FrustumDetected(
                            start_time=first_seen,
                            repeat_time=record.time,
                            period=record.time - first_seen,
                        )
                    )
                return self._build_frustum(first_seen, record.time, record.state)
            self._seen[record.state] = record.time
            self._record_step(record)
        raise SimulationError(
            f"no repeated instantaneous state within {max_steps} time steps"
        )

    def _build_frustum(
        self, start: int, repeat: int, state: InstantaneousState
    ) -> CyclicFrustum:
        return CyclicFrustum(
            start_time=start,
            repeat_time=repeat,
            state=state,
            schedule_steps=self.graph.fired_between(start, repeat),
            firing_counts=self.graph.firing_counts(start, repeat),
        )


@timed("petrinet.detect_frustum")
def detect_frustum(
    timed_net: TimedPetriNet,
    initial: Marking,
    policy: Optional[ConflictResolutionPolicy] = None,
    max_steps: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
    engine: str = "step",
) -> Tuple[CyclicFrustum, BehaviorGraph]:
    """Convenience wrapper: detect the cyclic frustum and return it with
    the behavior graph that produced it.

    ``max_steps`` defaults to a generous multiple of the theoretical
    O(n⁴) bound (Theorem 4.1.2), clamped to at least 10,000 steps so
    tiny nets with long pipelines are not cut short.

    ``instrumentation`` threads down to the simulator: the whole
    detection run streams firing/snapshot events plus one
    :class:`~repro.obs.events.FrustumDetected` when the state repeats.

    ``engine`` selects the simulation engine: ``"step"`` runs the
    unit-time :class:`~repro.petrinet.simulator.EarliestFiringSimulator`
    and snapshots every tick; ``"event"`` runs the completion-heap
    :class:`~repro.petrinet.event_sim.EventDrivenSimulator`, which jumps
    between firing/completion instants and does work proportional to
    firings rather than elapsed time.  Both return the same frustum (the
    test suite cross-validates them); the event engine's behavior graph
    simply omits the no-op gap steps.

    >>> from repro.loops import parse_loop, translate
    >>> from repro.core import build_sdsp_pn
    >>> pn = build_sdsp_pn(translate(parse_loop(
    ...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
    >>> frustum, _ = detect_frustum(pn.timed, pn.initial, engine="event")
    >>> (frustum.start_time, frustum.length)
    (0, 1)
    """
    if max_steps is None:
        n = max(1, len(timed_net.net.transition_names))
        total_duration = sum(timed_net.durations.values())
        max_steps = max(10_000, 4 * n**4, 16 * total_duration)
    if engine == "step":
        detector = FrustumDetector(
            timed_net, initial, policy, instrumentation=instrumentation
        )
    elif engine == "event":
        from .event_sim import EventFrustumDetector

        detector = EventFrustumDetector(
            timed_net, initial, policy, instrumentation=instrumentation
        )
    else:
        raise SimulationError(
            f"unknown simulation engine {engine!r}; expected 'step' or 'event'"
        )
    frustum = detector.detect(max_steps)
    return frustum, detector.graph
