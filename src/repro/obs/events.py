"""Structured simulation events and the opt-in ``Instrumentation`` hub.

The paper's central artifact is the *behavior graph* — the time-indexed
record of firings under the earliest firing rule.  These events are
that record, surfaced as data:

* :class:`FiringStarted` / :class:`FiringCompleted` — one pair per
  transition firing (a *transition instance* in the behavior graph; in
  the instantaneous-state semantics, the interval during which the
  transition contributes a non-zero residual firing time);
* :class:`StateSnapshot` — the instantaneous state ``(marking,
  residual vector, policy key)`` at the canonical post-completion /
  pre-firing point of a step — the states frustum detection hashes;
* :class:`FrustumDetected` — the first repeated instantaneous state,
  i.e. the boundaries of the cyclic frustum (Definition 3.3.1).

Event times are the simulator's *logical* clock (integer cycles), never
wall-clock: compiler stage timing belongs to the pass manager
(:mod:`repro.compiler.manager`).

``Instrumentation`` fans events out to pluggable sinks.  The library
default is :data:`NULL_INSTRUMENTATION`, whose ``emit`` discards and
which is falsy, so hot loops guard with ``if obs:`` / ``is not None``
and pay nothing when tracing is off.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Event",
    "FiringStarted",
    "FiringCompleted",
    "StateSnapshot",
    "FrustumDetected",
    "EventSink",
    "ListSink",
    "Instrumentation",
    "NullInstrumentation",
    "NULL_INSTRUMENTATION",
]


@dataclasses.dataclass(frozen=True)
class Event:
    """Base class for all structured events."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation: ``{"event": <type>, ...fields}``."""
        payload: Dict[str, Any] = {"event": type(self).__name__}
        payload.update(dataclasses.asdict(self))
        return payload


@dataclasses.dataclass(frozen=True)
class FiringStarted(Event):
    """Transition ``transition`` started firing at logical ``time`` and
    will occupy ``duration`` cycles (one behavior-graph transition
    instance).

    ``consumed`` is the token provenance of this firing: one
    ``(place, birth_time, producer)`` triple per input place, naming
    the token the firing consumed — the place it sat on, the logical
    time it was deposited, and the transition whose completion
    deposited it (``""`` for tokens of the initial marking).  Tokens
    are matched FIFO per place, exactly like
    :class:`repro.petrinet.behavior.BehaviorGraph`'s arcs, so these triples
    are the edges of the enabling DAG
    (:mod:`repro.obs.causality`).  Both simulation engines fill it
    whenever instrumentation is attached; it is ``None`` only for
    hand-built events.
    """

    time: int
    transition: str
    duration: int
    consumed: Optional[Tuple[Tuple[str, int, str], ...]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        if self.consumed is None:
            del payload["consumed"]
        else:
            payload["consumed"] = [list(entry) for entry in self.consumed]
        return payload


@dataclasses.dataclass(frozen=True)
class FiringCompleted(Event):
    """Transition ``transition`` finished at logical ``time`` the firing
    it started at ``time - duration``."""

    time: int
    transition: str
    duration: int


@dataclasses.dataclass(frozen=True)
class StateSnapshot(Event):
    """The instantaneous state at the canonical snapshot point of step
    ``time`` — exactly what frustum detection hashes."""

    time: int
    marking: Tuple[Tuple[str, int], ...]
    residuals: Tuple[Tuple[str, int], ...]
    policy_key: Tuple


@dataclasses.dataclass(frozen=True)
class FrustumDetected(Event):
    """The instantaneous state first seen at ``start_time`` repeated at
    ``repeat_time``; the cyclic frustum spans the ``period`` steps in
    between."""

    start_time: int
    repeat_time: int
    period: int


class EventSink:
    """Receiver interface for structured events."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; further ``emit`` is undefined."""


class ListSink(EventSink):
    """In-memory sink, mainly for tests and ad-hoc inspection."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


class Instrumentation:
    """Fan-out hub: simulator events to sinks.

    Truthiness doubles as the fast-path gate: a real ``Instrumentation``
    is truthy, the :data:`NULL_INSTRUMENTATION` default is falsy, so
    per-step simulator code can guard event construction with a single
    ``if obs is not None`` / ``if obs`` check.
    """

    enabled = True

    def __init__(self, sinks: Iterable[EventSink] = ()) -> None:
        self.sinks: List[EventSink] = list(sinks)

    def add_sink(self, sink: EventSink) -> EventSink:
        self.sinks.append(sink)
        return sink

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class NullInstrumentation(Instrumentation):
    """The do-nothing default: falsy, discards events.

    Exists so library code can unconditionally call ``obs.emit(...)``
    on cold paths while hot loops skip event construction entirely via
    the falsy check.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def emit(self, event: Event) -> None:
        pass

    def add_sink(self, sink: EventSink) -> EventSink:
        raise ValueError(
            "cannot attach sinks to the shared NULL_INSTRUMENTATION; "
            "create a repro.obs.Instrumentation instead"
        )


#: Shared no-op used wherever instrumentation was not requested.
NULL_INSTRUMENTATION = NullInstrumentation()
