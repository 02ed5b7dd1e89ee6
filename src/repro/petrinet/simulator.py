"""Discrete-time simulator for timed Petri nets under the earliest
firing rule (Assumption A.6.2).

The simulator advances in unit time steps.  Within the step at time
``u`` it performs, in order:

1. **Completion** — every transition whose firing finishes at ``u``
   deposits one token on each of its output places.
2. **Snapshot** — the instantaneous state ``(marking, residual
   firing-time vector, policy key)`` is captured.  Because the net is
   deterministic from here on (earliest firing + a deterministic
   conflict-resolution policy), this snapshot fully determines the
   future — which is exactly what frustum detection exploits.
3. **Firing** — the enabled, idle transitions are offered to the
   conflict-resolution policy; each selected transition consumes one
   token per input place and is scheduled to complete at
   ``u + τ``.  Selection is *greedy with re-check*: a transition is
   fired only if it is still enabled after earlier selections in the
   same step consumed their tokens, so structural conflicts (the SCP
   run place) are resolved correctly.

Assumption A.6.1 (non-reentrance) is enforced by keeping at most one
in-flight firing per transition, equivalent to the paper's implicit
one-token self-loops.

The event-driven alternative — same rule, same snapshots, but jumping
straight between completion instants — is
:class:`repro.petrinet.event_sim.EventDrivenSimulator`.

>>> from repro.petrinet import PetriNet, Marking, TimedPetriNet
>>> net = PetriNet(name="ring")
>>> for t in ("a", "b"):
...     _ = net.add_transition(t)
>>> for place, (src, dst) in [("p", ("a", "b")), ("q", ("b", "a"))]:
...     _ = net.add_place(place)
...     _ = net.add_arc(src, place)
...     _ = net.add_arc(place, dst)
>>> sim = EarliestFiringSimulator(
...     TimedPetriNet(net, {"a": 2, "b": 1}), Marking({"p": 1}))
>>> record = sim.step()          # time 0: p feeds b, which fires
>>> record.fired
('b',)
>>> sim.step().fired             # b needs 1 cycle; a fires at time 1
('a',)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..obs.events import (
    FiringCompleted,
    FiringStarted,
    Instrumentation,
    StateSnapshot,
)
from .marking import Marking
from .net import PetriNet
from .timed import InstantaneousState, TimedPetriNet

__all__ = [
    "ConflictResolutionPolicy",
    "FireAllPolicy",
    "StepRecord",
    "EarliestFiringSimulator",
]


class ConflictResolutionPolicy:
    """Interface for deterministic conflict resolution.

    Persistent nets (marked graphs) never present a choice, so the
    default :class:`FireAllPolicy` fires every candidate.  Nets with
    structural conflict — the SDSP-SCP-PN — need a real policy; the
    paper's Assumption 5.2.1 only requires the policy to be a
    deterministic function of the machine's instantaneous state, which
    is why :meth:`state_key` feeds into the state hash used for frustum
    detection.
    """

    #: Input places this policy's readiness test leaves out: the
    #: shared resource it arbitrates (the SCP run place for
    #: :class:`~repro.machine.policies.FifoRunPlacePolicy`).  Only the
    #: event engine reads it; see :meth:`begin_step`.
    resource_places: Tuple[str, ...] = ()

    def reset(self) -> None:
        """Forget all internal state (called when a simulation starts)."""

    def begin_step(
        self, time: int, marking: Mapping[str, int], idle: Sequence[str]
    ) -> None:
        """Observe the post-completion state of the net at ``time``.
        ``idle`` lists idle (not in-flight) transitions to examine, in
        the net's declaration order; ``marking[place]`` reads a
        place's token count.

        The step engine offers every idle transition at every tick and
        passes a :class:`Marking`.

        **Event-engine contract.**  The event-driven engine
        (:class:`repro.petrinet.event_sim.EventDrivenSimulator`) only
        calls this at *event* instants — times when a firing completes
        or the net starts — and passes its live token vector (a
        place → count mapping, read-only to the policy).  At time 0
        ``idle`` holds every transition; after that only the idle
        transitions that became *ready* at this event: those that
        completed now, and those whose last empty input place outside
        :attr:`resource_places` was filled now.  So an override must

        * examine only what it is offered and treat every other idle
          transition as unchanged since the last call, and
        * be a no-op on quiet ticks: between events no transition
          completes and none fires, so the marking and in-flight set it
          would observe are unchanged from the previous event, and any
          state it would accumulate from them is already accumulated.

        A transition counts as ready once every input place outside
        :attr:`resource_places` holds a token; a policy whose test
        leaves out a shared place must name it there.  Both shipped
        policies satisfy this (:class:`FireAllPolicy` and
        :class:`~repro.machine.policies.StaticPriorityPolicy` do not
        override it; :class:`~repro.machine.policies.FifoRunPlacePolicy`
        names its run place and only enqueues newly data-ready
        transitions, which appear only at events).  A policy that
        genuinely depends on wall-clock ``time`` at quiet ticks would
        break step/event equivalence — don't write one.
        """

    def order(self, candidates: Sequence[str]) -> List[str]:
        """Return the candidates in the order firing should be
        attempted.  The simulator re-checks enabledness before each
        firing, so returning every candidate is always safe."""
        return list(candidates)

    def notify_fired(self, transition: str) -> None:
        """Called for each transition actually fired this step."""

    def state_key(self) -> Tuple:
        """Hashable internal-state summary, merged into the
        instantaneous state."""
        return ()


class FireAllPolicy(ConflictResolutionPolicy):
    """Fire every enabled idle transition — the earliest firing rule on
    a persistent net, where this is the unique maximal choice."""


@dataclass(frozen=True)
class StepRecord:
    """What happened during one simulated time step.

    ``state`` is the instantaneous state *after* completions and
    *before* firings — the canonical snapshot point described in the
    module docstring.
    """

    time: int
    completed: Tuple[str, ...]
    fired: Tuple[str, ...]
    state: InstantaneousState


class EarliestFiringSimulator:
    """Step-by-step executor for a :class:`TimedPetriNet`.

    Parameters
    ----------
    timed_net:
        The net with execution times.
    initial:
        Initial marking ``M0``.
    policy:
        Conflict-resolution policy; defaults to firing everything,
        which is correct exactly when the net is persistent.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation`.  When given (and
        enabled), every step emits :class:`FiringCompleted`,
        :class:`StateSnapshot` and :class:`FiringStarted` events in
        intra-step order.  The default no-op costs one pointer check
        per step.
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
        # A falsy instrumentation (None or NULL_INSTRUMENTATION)
        # collapses to None so step() guards with one identity check.
        self._obs: Optional[Instrumentation] = (
            instrumentation if instrumentation else None
        )
        self._initial = initial
        self.reset()

    def reset(self) -> None:
        """Return to time 0 with the initial marking and no in-flight
        firings."""
        self.time = 0
        self.marking = self._initial
        # transition -> absolute completion time
        self._in_flight: Dict[str, int] = {}
        self.total_firings: Dict[str, int] = {
            t: 0 for t in self.net.transition_names
        }
        # Token provenance, kept only when instrumentation is attached:
        # per place, a FIFO of (birth time, producing transition) for
        # every token currently on it ("" marks initial-marking tokens).
        # Deposits append, firings pop — the same FIFO matching as
        # BehaviorGraph, so FiringStarted.consumed agrees with the
        # behavior graph's consumption arcs.
        self._births: Optional[Dict[str, List[Tuple[int, str]]]] = (
            {
                p: [(0, "")] * self._initial[p]
                for p in self.net.place_names
            }
            if self._obs is not None
            else None
        )
        self.policy.reset()
        self._check_policy_key()

    def _check_policy_key(self) -> None:
        """Assert the policy's ``state_key`` is hashable.

        The key is merged into every :class:`InstantaneousState` (see
        :meth:`snapshot`), and frustum detection uses those states as
        dict keys — an unhashable key would only explode deep inside
        detection, so fail fast here with a pointed message instead.
        Checked once per reset to keep it off the per-step hot path.
        """
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
    # State inspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> Dict[str, int]:
        """Copy of the map from busy transitions to completion times."""
        return dict(self._in_flight)

    def residuals(self) -> Dict[str, int]:
        """Remaining execution time per busy transition, relative to the
        current time."""
        return {t: finish - self.time for t, finish in self._in_flight.items()}

    def snapshot(self) -> InstantaneousState:
        """Instantaneous state at the canonical point of the current
        step (post-completion / pre-firing when called from
        :meth:`step`).

        The policy's ``state_key()`` is part of the returned state and
        therefore part of the hash used by frustum detection: per
        Assumption 5.2.1 the machine's choices must be a deterministic
        function of its instantaneous state, so any policy-internal
        memory (e.g. the SCP FIFO queue) has to be in the state for a
        repeated snapshot to really imply repeated behaviour.
        Hashability of the key is asserted at :meth:`reset` time.
        """
        return InstantaneousState.make(
            self.marking, self.residuals(), self.policy.state_key()
        )

    def is_deadlocked(self) -> bool:
        """No in-flight work and nothing enabled."""
        return not self._in_flight and not self._enabled_idle()

    def _enabled_idle(self) -> List[str]:
        enabled = []
        for transition in self.net.transition_names:
            if transition in self._in_flight:
                continue
            if all(self.marking[p] > 0 for p in self.net.input_places(transition)):
                enabled.append(transition)
        return enabled

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> StepRecord:
        """Advance one time unit; see the module docstring for the
        intra-step ordering."""
        now = self.time
        obs = self._obs

        # 1. completions
        completed = tuple(
            sorted(t for t, finish in self._in_flight.items() if finish == now)
        )
        if completed:
            deltas: Dict[str, int] = {}
            for transition in completed:
                del self._in_flight[transition]
                for place in self.net.output_places(transition):
                    deltas[place] = deltas.get(place, 0) + 1
            self.marking = self.marking.with_delta(deltas)
            if obs is not None:
                births = self._births
                for transition in completed:
                    for place in self.net.output_places(transition):
                        births[place].append((now, transition))
                    obs.emit(
                        FiringCompleted(
                            now, transition, self.timed_net.duration(transition)
                        )
                    )

        # 2. snapshot (also lets the policy observe the state)
        idle = [
            t for t in self.net.transition_names if t not in self._in_flight
        ]
        self.policy.begin_step(now, self.marking, idle)
        state = self.snapshot()
        if obs is not None:
            obs.emit(
                StateSnapshot(
                    now,
                    tuple(sorted(state.marking.items())),
                    state.residuals,
                    state.policy_key,
                )
            )

        # 3. firings, greedy with re-check in policy order
        candidates = self._enabled_idle()
        fired: List[str] = []
        for transition in self.policy.order(candidates):
            if transition in self._in_flight:
                continue
            inputs = self.net.input_places(transition)
            if not all(self.marking[p] > 0 for p in inputs):
                continue  # lost a structural conflict earlier this step
            duration = self.timed_net.duration(transition)
            if duration < 1:
                # A completion is detected by `finish == now`, so a
                # non-positive duration means the firing would complete
                # in the past (or this same step) and never be seen —
                # the transition stays in flight and run() spins to its
                # budget.  This only happens when the durations mapping
                # was mutated after TimedPetriNet validation.
                raise SimulationError(
                    f"transition {transition!r} has non-positive firing "
                    f"duration {duration}; durations must be >= 1 (was the "
                    "TimedPetriNet.durations mapping mutated?)"
                )
            self.marking = self.marking.with_delta({p: -1 for p in inputs})
            self._in_flight[transition] = now + duration
            self.total_firings[transition] += 1
            self.policy.notify_fired(transition)
            fired.append(transition)
            if obs is not None:
                births = self._births
                consumed = tuple(
                    (place, *births[place].pop(0)) for place in inputs
                )
                obs.emit(FiringStarted(now, transition, duration, consumed))

        self.time = now + 1
        return StepRecord(now, completed, tuple(fired), state)

    def run(
        self,
        max_steps: int,
        stop: Optional[Callable[[StepRecord], bool]] = None,
    ) -> List[StepRecord]:
        """Run up to ``max_steps`` steps, stopping early on deadlock or
        when ``stop(record)`` returns True.  Raises
        :class:`SimulationError` if a stop condition was requested but
        never met within the budget."""
        records: List[StepRecord] = []
        for _ in range(max_steps):
            if self.is_deadlocked():
                return records
            record = self.step()
            records.append(record)
            if stop is not None and stop(record):
                return records
        if stop is not None:
            raise SimulationError(
                f"stop condition not reached within {max_steps} steps"
            )
        return records
