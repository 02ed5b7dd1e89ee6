"""Deterministic conflict-resolution policies (Assumption 5.2.1).

The SDSP-SCP-PN's run place is a structural conflict: when several
instructions are data-ready, the machine must choose which one issues.
Assumption 5.2.1 only requires that the firing mechanism (a) never
idles while something is enabled and (b) is a deterministic function of
the machine's instantaneous state, so that a repeated instantaneous
state implies repeated behaviour (Lemma 5.2.1).

The paper's simulator resolves choices "by a decision mechanism which
employs a FIFO queue and an adjacency list representation of the static
dataflow graph"; :class:`FifoRunPlacePolicy` reproduces that scheme.
:class:`StaticPriorityPolicy` is an alternative (fixed priority) used
to demonstrate that *any* deterministic policy yields a frustum, and
that different policies may yield different frustums with the same
steady-state rate.

Both policies work unchanged under either simulation engine.  The
step engine calls :meth:`~repro.petrinet.simulator
.ConflictResolutionPolicy.begin_step` every tick with every idle
transition; the event engine only at event instants, with only the
idle transitions that became data-ready there (``FifoRunPlacePolicy``
names its run place in ``resource_places``, so the engine counts each
transition's empty *data* places).  That is sound because a
transition becomes data-ready only when it completes or a data place
of it is filled, both of which happen only at events, and
``begin_step`` examines only the transitions it is offered;
``StaticPriorityPolicy`` keeps no state at all.  Both engines offer
candidates to :meth:`order` under the same greedy-with-recheck
protocol, in the same adjacency-list order, so the conflict decisions
— and hence the frustum — are bit-identical.  See the event-engine
contract on
:meth:`repro.petrinet.simulator.ConflictResolutionPolicy.begin_step`
before writing a new policy.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from ..petrinet.net import PetriNet
from ..petrinet.simulator import ConflictResolutionPolicy

__all__ = ["FifoRunPlacePolicy", "StaticPriorityPolicy"]


class FifoRunPlacePolicy(ConflictResolutionPolicy):
    """FIFO issue of data-ready instructions, with adjacency-list order
    breaking ties among instructions that become ready simultaneously.

    A transition is *data-ready* when it is idle and every input place
    **except the run place** is marked; data-ready instructions enter a
    FIFO queue (simultaneous arrivals in ``priority_order``) and the
    head of the queue issues whenever the run place token is free.
    Dummy (non-instruction) transitions bypass the queue entirely.

    The queue contents are part of the machine state
    (:meth:`state_key`), so frustum detection sees a state that truly
    determines the future.
    """

    def __init__(
        self,
        net: PetriNet,
        run_place: str,
        priority_order: Sequence[str],
    ) -> None:
        self._net = net
        self._run_place = run_place
        self.resource_places = (run_place,)
        self._rank: Dict[str, int] = {
            t: i for i, t in enumerate(priority_order)
        }
        self._data_inputs: Dict[str, Tuple[str, ...]] = {
            t: tuple(p for p in net.input_places(t) if p != run_place)
            for t in priority_order
        }
        self._queue: List[str] = []
        self._queued: Set[str] = set()

    def reset(self) -> None:
        self._queue = []
        self._queued = set()

    def begin_step(
        self, time: int, marking: Mapping[str, int], idle: Sequence[str]
    ) -> None:
        # Only the offered idle transitions are examined, so the cost
        # follows the offer: every idle transition under the step
        # engine, the newly data-ready ones under the event engine.
        data_inputs = self._data_inputs
        queued = self._queued
        ready = [
            t
            for t in idle
            if t in data_inputs
            and t not in queued
            and all(marking[p] > 0 for p in data_inputs[t])
        ]
        if ready:
            ready.sort(key=self._rank.__getitem__)
            self._queue.extend(ready)
            queued.update(ready)

    def order(self, candidates: Sequence[str]) -> List[str]:
        candidate_set = set(candidates)
        queued = [t for t in self._queue if t in candidate_set]
        others = [t for t in candidates if t not in self._rank]
        return queued + others

    def notify_fired(self, transition: str) -> None:
        if transition in self._queued:
            self._queue.remove(transition)
            self._queued.discard(transition)

    def state_key(self) -> Tuple:
        return tuple(self._queue)


class StaticPriorityPolicy(ConflictResolutionPolicy):
    """Always prefer the earliest transition in a fixed priority list
    (stateless, so its :meth:`state_key` is empty).

    With a shared resource this can starve low-priority instructions
    *within* a period but not across periods — the data dependences
    eventually block high-priority instructions — so a frustum still
    appears; the test suite demonstrates both facts.
    """

    def __init__(self, priority_order: Sequence[str]) -> None:
        self._rank: Dict[str, int] = {
            t: i for i, t in enumerate(priority_order)
        }

    def order(self, candidates: Sequence[str]) -> List[str]:
        return sorted(
            candidates, key=lambda t: (self._rank.get(t, len(self._rank)), t)
        )
