"""Result types of a compilation: the live artifact bundle and the
parsed view of its deterministic payload.

The payload itself — a plain JSON-ready dict — is built in exactly one
place, the ``summarize`` stage (:mod:`repro.compiler.stages`), which
merges the upstream stages' ``data`` projections.  These types only
carry or parse it:

* :class:`CompiledLoop` — every live artifact of one compilation
  (translation, nets, frusta, behavior graphs, schedules) plus the
  compile's :attr:`~CompiledLoop.payload`;
* :class:`CompiledLoopSummary` — the parsed view of a payload (the
  value type of the compile cache and of ``repro sweep`` /
  ``repro serve``): :meth:`~CompiledLoopSummary.from_payload` keeps the
  dict, :meth:`~CompiledLoopSummary.payload` returns it, and each field
  parses on first read;
* :class:`FrustumSummary` — the parsed facts of a detected cyclic
  frustum.

:mod:`repro.pipeline` re-exports all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.bounds import TheoreticalBounds
from ..core.rate import pipeline_utilization
from ..core.schedule import PipelinedSchedule, ScheduledOp
from ..core.scp import SdspScpNet
from ..core.sdsp_pn import SdspPetriNet
from ..errors import ReproError
from ..loops.translate import TranslationResult
from ..petrinet.behavior import BehaviorGraph, CyclicFrustum

__all__ = [
    "PAYLOAD_SCHEMA_VERSION",
    "CompiledLoop",
    "CompiledLoopSummary",
    "FrustumSummary",
    "bounds_payload",
    "fraction_from",
    "frustum_payload",
    "schedule_payload",
    "schedule_from_payload",
]

#: Version of the payload layout.  Version 2 added ``unroll`` /
#: ``achieved_rate`` / ``dependence_bound`` (and this field itself);
#: version-1 payloads — which carry none of them — still load with
#: ``unroll = 1`` defaults, while payloads *newer* than the reader are
#: rejected outright (a reader must never silently reinterpret fields
#: it does not know about).
PAYLOAD_SCHEMA_VERSION = 2


def bounds_payload(bounds: TheoreticalBounds) -> Dict[str, Any]:
    """The payload's ``bounds`` projection.  The capped flag appears
    only on a capped count, so every payload below the budget keeps
    the bytes it had before the count was budgeted."""
    data: Dict[str, Any] = {
        "n": bounds.n,
        "critical_cycle_count": bounds.critical_cycle_count,
        "iteration_bound": bounds.iteration_bound,
        "step_bound": bounds.step_bound,
        "covers_all_transitions": bounds.covers_all_transitions,
    }
    if bounds.critical_cycle_count_capped:
        data["critical_cycle_count_capped"] = True
    return data


def fraction_from(value: Any) -> Fraction:
    """Parse a payload rational: an int, an ``int``-valued string, or
    the exact ``"p/q"`` form the ledger schema emits."""
    return Fraction(str(value))


def _optional_fraction(value: Any) -> Optional[Fraction]:
    return fraction_from(value) if value is not None else None


@dataclass(frozen=True)
class FrustumSummary:
    """The deterministic facts of a detected cyclic frustum, parsed
    from its projection (:func:`frustum_payload`) — everything the
    Tables 1/2 measurement columns need, without the instantaneous
    state or the behavior graph."""

    start_time: int
    repeat_time: int
    firing_counts: Dict[str, int]
    schedule_steps: Tuple[Tuple[int, Tuple[str, ...]], ...]

    @property
    def length(self) -> int:
        return self.repeat_time - self.start_time

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "FrustumSummary":
        return cls(
            start_time=int(data["start_time"]),
            repeat_time=int(data["repeat_time"]),
            firing_counts={
                str(name): int(count)
                for name, count in data["firing_counts"].items()
            },
            schedule_steps=tuple(
                (int(time), tuple(str(name) for name in fired))
                for time, fired in data["schedule_steps"]
            ),
        )


def frustum_payload(frustum: CyclicFrustum) -> Dict[str, Any]:
    """The JSON-ready projection of a
    :class:`~repro.petrinet.behavior.CyclicFrustum`."""
    return {
        "start_time": frustum.start_time,
        "repeat_time": frustum.repeat_time,
        "length": frustum.length,
        "firing_counts": dict(frustum.firing_counts),
        "schedule_steps": [
            [time, list(fired)] for time, fired in frustum.schedule_steps
        ],
    }


def schedule_payload(schedule: PipelinedSchedule) -> Dict[str, Any]:
    """The JSON-ready projection of a :class:`PipelinedSchedule`."""
    return {
        "start_time": schedule.start_time,
        "initiation_interval": schedule.initiation_interval,
        "iterations_per_kernel": schedule.iterations_per_kernel,
        "instructions": list(schedule.instructions),
        "prologue": [
            [op.time, op.instruction, op.iteration]
            for op in schedule.prologue
        ],
        "kernel": [
            [rel, name, base] for rel, name, base in schedule.kernel
        ],
    }


def schedule_from_payload(data: Mapping[str, Any]) -> PipelinedSchedule:
    """Rehydrate a :class:`PipelinedSchedule` from its projection."""
    return PipelinedSchedule(
        prologue=[
            ScheduledOp(int(time), str(name), int(iteration))
            for time, name, iteration in data["prologue"]
        ],
        kernel=[
            (int(rel), str(name), int(base))
            for rel, name, base in data["kernel"]
        ],
        start_time=int(data["start_time"]),
        initiation_interval=int(data["initiation_interval"]),
        iterations_per_kernel=int(data["iterations_per_kernel"]),
        instructions=tuple(str(name) for name in data["instructions"]),
    )


class CompiledLoopSummary:
    """The parsed view of one compile's deterministic payload.

    The payload is a pure function of ``(source, scalars,
    pipeline_stages, include_io, engine, unroll)`` — no nets, no
    behavior graphs, no wall clock — which makes it the value type of
    the content-addressed compile cache (:mod:`repro.batch.cache`) and
    the per-item record of ``repro sweep``.  Build a view with
    :meth:`from_payload`, which keeps the dict; :meth:`payload` returns
    that same dict, so its bytes are exactly the compile's.  Each field
    parses on first read (the schedules and frusta are parsed once).
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        """Internal: build views with :meth:`from_payload`, which checks
        the payload's schema version first."""
        self._payload = payload

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "CompiledLoopSummary":
        """The view of a payload dict (e.g. a compile-cache entry),
        without re-simulating anything.

        Payloads from schema version 1 (pre-unrolling builds carry no
        ``payload_schema`` field at all) read with ``unroll = 1``
        defaults; payloads newer than this reader are refused — their
        unknown fields could change the meaning of the known ones.
        """
        schema = int(data.get("payload_schema", 1))
        if schema > PAYLOAD_SCHEMA_VERSION:
            raise ReproError(
                f"compiled-loop payload has schema version {schema}, "
                f"newer than this reader ({PAYLOAD_SCHEMA_VERSION}); "
                "upgrade before loading it"
            )
        return cls(data)

    def payload(self) -> Dict[str, Any]:
        """The payload this view parses — the dict itself."""
        return self._payload

    @property
    def loop(self) -> str:
        return self._payload["loop"]

    @property
    def engine(self) -> str:
        return self._payload["engine"]

    @property
    def include_io(self) -> bool:
        return self._payload["include_io"]

    @property
    def pipeline_stages(self) -> Optional[int]:
        return self._payload.get("pipeline_stages")

    @property
    def unroll(self) -> int:
        return self._payload.get("unroll", 1)

    @property
    def net_size(self) -> int:
        return self._payload["net_size"]

    @property
    def n_transitions(self) -> int:
        return self._payload["n_transitions"]

    @property
    def rate(self) -> Fraction:
        return fraction_from(self._payload["rate"])

    @property
    def optimal_rate(self) -> Fraction:
        """Alias matching :attr:`CompiledLoop.optimal_rate`."""
        return self.rate

    @property
    def cycle_time(self) -> Fraction:
        return fraction_from(self._payload["cycle_time"])

    @property
    def achieved_rate(self) -> Optional[Fraction]:
        return _optional_fraction(self._payload.get("achieved_rate"))

    @property
    def dependence_bound(self) -> Optional[Fraction]:
        return _optional_fraction(self._payload.get("dependence_bound"))

    @cached_property
    def bounds(self) -> TheoreticalBounds:
        return TheoreticalBounds(**self._payload["bounds"])

    @cached_property
    def frustum(self) -> FrustumSummary:
        return FrustumSummary.from_payload(self._payload["frustum"])

    @cached_property
    def schedule(self) -> PipelinedSchedule:
        return schedule_from_payload(self._payload["schedule"])

    @property
    def scp_utilization(self) -> Optional[Fraction]:
        return _optional_fraction(self._scp.get("utilization"))

    @cached_property
    def scp_frustum(self) -> Optional[FrustumSummary]:
        data = self._scp.get("frustum")
        return FrustumSummary.from_payload(data) if data is not None else None

    @cached_property
    def scp_schedule(self) -> Optional[PipelinedSchedule]:
        data = self._scp.get("schedule")
        return schedule_from_payload(data) if data is not None else None

    @property
    def _scp(self) -> Mapping[str, Any]:
        return self._payload.get("scp") or {}


@dataclass
class CompiledLoop:
    """Every artifact of one compilation, and its payload.

    ``payload`` is the deterministic dict the ``summarize`` stage
    merged for this compile (the bytes ``repro compile`` prints);
    :meth:`summary` parses it.  ``scp``/``scp_frustum``/``scp_schedule``
    are None unless a pipeline depth was requested.
    """

    translation: TranslationResult
    pn: SdspPetriNet
    frustum: CyclicFrustum
    behavior: BehaviorGraph
    schedule: PipelinedSchedule
    bounds: TheoreticalBounds
    rate: Fraction
    payload: Dict[str, Any]
    engine: str = "event"
    include_io: bool = True
    scp: Optional[SdspScpNet] = None
    scp_frustum: Optional[CyclicFrustum] = None
    scp_behavior: Optional[BehaviorGraph] = None
    scp_schedule: Optional[PipelinedSchedule] = None
    unroll: int = 1
    achieved_rate: Optional[Fraction] = None
    dependence_bound: Optional[Fraction] = None

    @property
    def optimal_rate(self) -> Fraction:
        """Alias of :attr:`rate`: the time-optimal computation rate the
        ideal model achieves (Howard, computed once in the ``rate``
        stage)."""
        return self.rate

    @property
    def scp_utilization(self) -> Optional[Fraction]:
        if self.scp is None or self.scp_frustum is None:
            return None
        return pipeline_utilization(self.scp, self.scp_frustum)

    def summary(self) -> CompiledLoopSummary:
        """The parsed view of :attr:`payload` — what the compile cache
        stores and ``repro sweep`` merges."""
        return CompiledLoopSummary.from_payload(self.payload)
