"""Result types of a compilation: the live artifact bundle and its
deterministic, serialisable projection.

These classes moved here verbatim from :mod:`repro.pipeline` when the
monolithic ``compile_loop`` was decomposed into the staged pass
manager (:mod:`repro.compiler.manager`); the pipeline module re-exports
them, so ``from repro.pipeline import CompiledLoopSummary`` keeps
working and every payload stays byte-identical.

* :class:`CompiledLoop` — every live artifact of one compilation
  (translation, nets, frusta, behavior graphs, schedules);
* :class:`CompiledLoopSummary` — the pure-data projection whose
  :meth:`~CompiledLoopSummary.payload` round-trips byte-identically
  under :func:`repro.obs.stable_json` (the value type of the compile
  cache and of ``repro sweep`` / ``repro serve``);
* :class:`FrustumSummary` — the serialisable facts of a detected
  cyclic frustum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.bounds import TheoreticalBounds
from ..core.rate import optimal_rate, pipeline_utilization
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
    "fraction_from",
    "schedule_payload",
    "schedule_from_payload",
]

#: Version of the :meth:`CompiledLoopSummary.payload` layout.  Version
#: 2 added ``unroll`` / ``achieved_rate`` / ``dependence_bound`` (and
#: this field itself); version-1 payloads — which carry none of them —
#: still load with ``unroll = 1`` defaults, while payloads *newer* than
#: the reader are rejected outright (a reader must never silently
#: reinterpret fields it does not know about).
PAYLOAD_SCHEMA_VERSION = 2


def fraction_from(value: Any) -> Fraction:
    """Parse a payload rational: an int, an ``int``-valued string, or
    the exact ``"p/q"`` form the ledger schema emits."""
    return Fraction(str(value))


@dataclass(frozen=True)
class FrustumSummary:
    """The deterministic facts of a detected cyclic frustum.

    This is the serialisable projection of
    :class:`~repro.petrinet.behavior.CyclicFrustum` — everything the
    Tables 1/2 measurement columns need, without the instantaneous
    state or the behavior graph, so it survives a JSON round trip
    byte-identically (the compile cache stores exactly this).
    """

    start_time: int
    repeat_time: int
    firing_counts: Dict[str, int]
    schedule_steps: Tuple[Tuple[int, Tuple[str, ...]], ...]

    @property
    def length(self) -> int:
        return self.repeat_time - self.start_time

    @classmethod
    def from_frustum(cls, frustum: CyclicFrustum) -> "FrustumSummary":
        return cls(
            start_time=frustum.start_time,
            repeat_time=frustum.repeat_time,
            firing_counts=dict(frustum.firing_counts),
            schedule_steps=tuple(
                (time, tuple(fired)) for time, fired in frustum.schedule_steps
            ),
        )

    def payload(self) -> Dict[str, Any]:
        return {
            "start_time": self.start_time,
            "repeat_time": self.repeat_time,
            "length": self.length,
            "firing_counts": dict(self.firing_counts),
            "schedule_steps": [
                [time, list(fired)] for time, fired in self.schedule_steps
            ],
        }

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


@dataclass
class CompiledLoopSummary:
    """The deterministic payload of one compilation.

    Everything here is a pure function of ``(source, scalars,
    pipeline_stages, include_io, engine)`` — no nets, no behavior
    graphs, no wall clock — which makes it the value type of the
    content-addressed compile cache (:mod:`repro.batch.cache`) and the
    per-item record of ``repro sweep``.  ``payload()`` and
    ``from_payload()`` round-trip byte-identically under
    :func:`repro.obs.stable_json`.
    """

    loop: str
    engine: str
    include_io: bool
    pipeline_stages: Optional[int]
    rate: Fraction
    bounds: TheoreticalBounds
    net_size: int
    n_transitions: int
    frustum: FrustumSummary
    schedule: PipelinedSchedule
    scp_utilization: Optional[Fraction] = None
    scp_frustum: Optional[FrustumSummary] = None
    scp_schedule: Optional[PipelinedSchedule] = None
    unroll: int = 1
    achieved_rate: Optional[Fraction] = None
    dependence_bound: Optional[Fraction] = None

    @property
    def optimal_rate(self) -> Fraction:
        """Alias matching :attr:`CompiledLoop.optimal_rate`."""
        return self.rate

    @property
    def cycle_time(self) -> Fraction:
        return Fraction(1, 1) / self.rate

    def payload(self) -> Dict[str, Any]:
        """The stable JSON-ready dict (ledger-schema normalised)."""
        from ..obs.schema import normalize_payload

        raw: Dict[str, Any] = {
            "payload_schema": PAYLOAD_SCHEMA_VERSION,
            "loop": self.loop,
            "engine": self.engine,
            "include_io": self.include_io,
            "pipeline_stages": self.pipeline_stages,
            "unroll": self.unroll,
            "achieved_rate": self.achieved_rate,
            "dependence_bound": self.dependence_bound,
            "rate": self.rate,
            "cycle_time": self.cycle_time,
            "initiation_interval": self.schedule.initiation_interval,
            "iterations_per_kernel": self.schedule.iterations_per_kernel,
            "net_size": self.net_size,
            "n_transitions": self.n_transitions,
            "bounds": {
                "n": self.bounds.n,
                "critical_cycle_count": self.bounds.critical_cycle_count,
                "iteration_bound": self.bounds.iteration_bound,
                "step_bound": self.bounds.step_bound,
                "covers_all_transitions": self.bounds.covers_all_transitions,
            },
            "frustum": self.frustum.payload(),
            "schedule": schedule_payload(self.schedule),
        }
        if self.pipeline_stages is not None:
            raw["scp"] = {
                "utilization": self.scp_utilization,
                "frustum": (
                    self.scp_frustum.payload()
                    if self.scp_frustum is not None
                    else None
                ),
                "schedule": (
                    schedule_payload(self.scp_schedule)
                    if self.scp_schedule is not None
                    else None
                ),
            }
        return normalize_payload(raw)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "CompiledLoopSummary":
        """Rehydrate a summary from a :meth:`payload` dict (e.g. a
        compile-cache entry) without re-simulating anything.

        Payloads from schema version 1 (pre-unrolling builds carry no
        ``payload_schema`` field at all) load with ``unroll = 1``
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
        bounds = data["bounds"]
        scp = data.get("scp")
        stages = data.get("pipeline_stages")
        achieved = data.get("achieved_rate")
        dependence = data.get("dependence_bound")
        return cls(
            unroll=int(data.get("unroll", 1)),
            achieved_rate=(
                fraction_from(achieved) if achieved is not None else None
            ),
            dependence_bound=(
                fraction_from(dependence) if dependence is not None else None
            ),
            loop=str(data["loop"]),
            engine=str(data["engine"]),
            include_io=bool(data["include_io"]),
            pipeline_stages=int(stages) if stages is not None else None,
            rate=fraction_from(data["rate"]),
            bounds=TheoreticalBounds(
                n=int(bounds["n"]),
                critical_cycle_count=int(bounds["critical_cycle_count"]),
                iteration_bound=int(bounds["iteration_bound"]),
                step_bound=int(bounds["step_bound"]),
                covers_all_transitions=bool(bounds["covers_all_transitions"]),
            ),
            net_size=int(data["net_size"]),
            n_transitions=int(data["n_transitions"]),
            frustum=FrustumSummary.from_payload(data["frustum"]),
            schedule=schedule_from_payload(data["schedule"]),
            scp_utilization=(
                fraction_from(scp["utilization"])
                if scp is not None and scp.get("utilization") is not None
                else None
            ),
            scp_frustum=(
                FrustumSummary.from_payload(scp["frustum"])
                if scp is not None and scp.get("frustum") is not None
                else None
            ),
            scp_schedule=(
                schedule_from_payload(scp["schedule"])
                if scp is not None and scp.get("schedule") is not None
                else None
            ),
        )


@dataclass
class CompiledLoop:
    """Every artifact of one compilation.

    ``scp``/``scp_frustum``/``scp_schedule`` are None unless a pipeline
    depth was requested.
    """

    translation: TranslationResult
    pn: SdspPetriNet
    frustum: CyclicFrustum
    behavior: BehaviorGraph
    schedule: PipelinedSchedule
    bounds: TheoreticalBounds
    engine: str = "event"
    include_io: bool = True
    rate: Optional[Fraction] = None
    scp: Optional[SdspScpNet] = None
    scp_frustum: Optional[CyclicFrustum] = None
    scp_behavior: Optional[BehaviorGraph] = None
    scp_schedule: Optional[PipelinedSchedule] = None
    unroll: int = 1
    achieved_rate: Optional[Fraction] = None
    dependence_bound: Optional[Fraction] = None
    #: The summary the ``summarize`` stage assembled for this compile.
    summarized: Optional[CompiledLoopSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def optimal_rate(self) -> Fraction:
        """The time-optimal computation rate the ideal model achieves.

        :func:`repro.pipeline.compile_loop` computes this exactly once
        (Howard, in the ``rate`` stage) and stores it in :attr:`rate`;
        the property only falls back to recomputing for hand-assembled
        instances that never set the field.
        """
        if self.rate is None:
            self.rate = optimal_rate(self.pn)
        return self.rate

    @property
    def scp_utilization(self) -> Optional[Fraction]:
        if self.scp is None or self.scp_frustum is None:
            return None
        return pipeline_utilization(self.scp, self.scp_frustum)

    def summary(self) -> CompiledLoopSummary:
        """The deterministic, serialisable projection of this result —
        what the compile cache stores and ``repro sweep`` merges (for a
        compile, the one its ``summarize`` stage assembled)."""
        if self.summarized is not None:
            return self.summarized
        return CompiledLoopSummary(
            loop=self.translation.loop.name,
            engine=self.engine,
            include_io=self.include_io,
            pipeline_stages=self.scp.stages if self.scp is not None else None,
            unroll=self.unroll,
            achieved_rate=self.achieved_rate,
            dependence_bound=self.dependence_bound,
            rate=self.optimal_rate,
            bounds=self.bounds,
            net_size=self.pn.size,
            n_transitions=len(self.pn.net.transition_names),
            frustum=FrustumSummary.from_frustum(self.frustum),
            schedule=self.schedule,
            scp_utilization=self.scp_utilization,
            scp_frustum=(
                FrustumSummary.from_frustum(self.scp_frustum)
                if self.scp_frustum is not None
                else None
            ),
            scp_schedule=self.scp_schedule,
        )
