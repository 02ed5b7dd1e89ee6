"""The pass manager: pull-based execution of the declared stages.

:class:`PassManager` resolves stages on demand.  Asking for a stage's
artifact first resolves its dependencies (recursively), derives the
stage's *request key* —

    sha256(stable_json({store schema, stage name, stage code version,
                        upstream fingerprints, stage params}))

— and then either loads the artifact from the
:class:`~repro.compiler.store.ArtifactStore` (a **hit**: only the JSON
projection comes back, no live objects) or runs the stage's compute
and stores the result.  Without a store there is no key to derive, and
fingerprints are derived only when read, so a storeless compile pays
for neither.

Because the key hashes upstream **fingerprints** rather than upstream
request parameters, two requests that differ only in a downstream
parameter (the unroll factor, the simulation engine, the SCP depth)
share every upstream artifact, and requests whose different parameters
happen to produce identical intermediate content (``unroll="auto"``
resolving to the explicit factor; the ``step`` and ``event`` engines'
bit-identical frusta) converge back onto shared downstream artifacts.

**Hydration.**  A consumer needing a *live* object from a stage that
hit the store triggers hydration: the stage's ``hydrate`` rebuilds the
objects from the stored projection when one is declared (e.g. the
kernel-extraction stages rebuild their
:class:`~repro.core.schedule.PipelinedSchedule` from the payload), and
otherwise the stage's compute re-runs over (recursively hydrated)
upstreams.  The stored data and fingerprint are kept — the stages are
deterministic, so a recompute reproduces them — and hydrations are
counted under ``stage.cache.hydrate``, never as hits or misses.

**Failure attribution.**  Any exception escaping a stage compute is
tagged with the stage name (:func:`mark_stage` — first tag wins, the
original exception type is preserved), so sweep records, the service
and ``repro explain`` can name the failing stage without parsing
messages.

**Stage timing.**  Each compile measures every stage's *self time*
(key derivation, store load, compute or hydration, store write — not
the upstream stages it pulls in) as a ``stage.<name>`` row, then
:data:`UNATTRIBUTED_TIMER` and :data:`TOTAL_TIMER`; the rows sum to
the total.  ``@timed`` library timers run inside the stages and are
never added to them (:func:`split_timers`).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

from ..errors import AnalysisError
from ..loops.unroll import validate_unroll
from ..obs.events import Instrumentation, NULL_INSTRUMENTATION
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.openmetrics import render_openmetrics
from ..obs.schema import stable_json
from ..obs.spans import NULL_TRACER, Tracer
from .artifacts import content_fingerprint
from .result import CompiledLoop, fraction_from
from .stages import (
    CORE_STAGE_ORDER,
    SCP_STAGE_ORDER,
    STAGES,
    CompileRequest,
    Stage,
    StageContext,
)
from .store import STORE_SCHEMA_VERSION, ArtifactStore

__all__ = [
    "Artifact",
    "PassManager",
    "TOTAL_TIMER",
    "UNATTRIBUTED_TIMER",
    "compile_live",
    "compile_staged",
    "failing_stage",
    "in_report_order",
    "make_request",
    "mark_stage",
    "request_key",
    "split_timers",
    "stage_ordered_exposition",
]

#: One compile's wall clock, and the part of it no stage row covers.
TOTAL_TIMER = "compile.total"
UNATTRIBUTED_TIMER = "compile.unattributed"


def split_timers(timers: Mapping[str, Any]) -> Tuple[Dict, Dict]:
    """``(breakdown, library)``: the ``stage.<name>`` rows in stage
    order, then :data:`UNATTRIBUTED_TIMER` and :data:`TOTAL_TIMER`;
    and every other timer, by name, to be listed apart."""
    names = [f"stage.{name}" for name in STAGES]
    names += [UNATTRIBUTED_TIMER, TOTAL_TIMER]
    breakdown = {name: timers[name] for name in names if name in timers}
    library = {n: timers[n] for n in sorted(timers) if n not in breakdown}
    return breakdown, library


def in_report_order(timers: Mapping[str, Any]) -> Dict[str, Any]:
    """``timers`` with the :func:`split_timers` breakdown first."""
    breakdown, library = split_timers(timers)
    return {**breakdown, **library}


def stage_ordered_exposition(source: Any) -> str:
    """OpenMetrics text for a registry or a ``dump()``-shaped mapping,
    its timers in :func:`in_report_order`."""
    dump = dict(source.dump() if hasattr(source, "dump") else source)
    dump["timers"] = in_report_order(dump.get("timers") or {})
    return render_openmetrics(dump)


#: Attribute carrying a stage name on an exception raised inside it.
STAGE_ATTR = "repro_stage"


def mark_stage(exc: BaseException, stage: str) -> BaseException:
    """Tag ``exc`` with the stage it escaped from (first tag wins, so
    an error crossing several stage frames keeps its origin)."""
    if getattr(exc, STAGE_ATTR, None) is None:
        try:
            setattr(exc, STAGE_ATTR, stage)
        except AttributeError:  # pragma: no cover - slotted exceptions
            pass
    return exc


def failing_stage(exc: BaseException) -> Optional[str]:
    """The stage ``exc`` was tagged with, or None."""
    stage = getattr(exc, STAGE_ATTR, None)
    return stage if isinstance(stage, str) else None


def make_request(
    source: str,
    scalars: Optional[Mapping[str, float]] = None,
    pipeline_stages: Optional[int] = None,
    include_io: bool = True,
    verify: bool = True,
    engine: str = "event",
    unroll: Union[int, str] = 1,
) -> CompileRequest:
    """Validate raw compile inputs into a :class:`CompileRequest`
    (bad ``unroll`` values raise :class:`~repro.errors.ReproError`
    tagged with stage ``"validate"``, before any stage runs)."""
    try:
        requested = validate_unroll(unroll)
    except Exception as exc:
        raise mark_stage(exc, "validate")
    return CompileRequest(
        source=source,
        scalars=dict(scalars) if scalars is not None else None,
        pipeline_stages=pipeline_stages,
        include_io=bool(include_io),
        verify=bool(verify),
        engine=engine,
        unroll=requested,
    )


def request_key(
    stage: Stage,
    request: CompileRequest,
    dep_fingerprints: Mapping[str, str],
) -> str:
    """The store address of one stage's output for one request: a
    sha256 over the store schema, the stage's name and code version,
    its upstream fingerprints, and the request parameters it declares.
    """
    canonical = stable_json(
        {
            "store_schema": STORE_SCHEMA_VERSION,
            "stage": stage.name,
            "version": stage.version,
            "deps": dict(dep_fingerprints),
            "params": stage.params(request),
        }
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Artifact:
    """One resolved stage output.

    ``live`` is None when the artifact came from the store and has not
    been hydrated; ``outcome`` is ``"computed"``, ``"hit"`` or
    ``"hydrated"`` (a hit whose live objects were rebuilt on demand).
    ``fingerprint`` is derived on first read: only a store reads it
    (to key downstream stages and to write the artifact).
    """

    stage: str
    data: Dict[str, Any]
    live: Optional[Dict[str, Any]]
    outcome: str
    derive_fingerprint: Callable[[], str] = field(repr=False)

    @cached_property
    def fingerprint(self) -> str:
        """The content fingerprint of this output."""
        return self.derive_fingerprint()


class PassManager:
    """Pull-based stage resolution for one :class:`CompileRequest`.

    With no store, every requested stage computes exactly once.  With
    a store, stages resolve to cached artifacts wherever the request
    key matches, and only the genuinely affected suffix of the
    pipeline recomputes.  :meth:`run` reports the stage timings to
    ``registry`` (default: the process-wide one) while it is enabled
    and to :attr:`timings`; ``tracer`` gets a span per stage.
    """

    def __init__(
        self,
        request: CompileRequest,
        store: Optional[ArtifactStore] = None,
        instrumentation: Optional[Instrumentation] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.request = request
        self.store = store
        self.obs = (
            instrumentation
            if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        self.registry = (
            registry if registry is not None else default_registry()
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The last :meth:`run`'s timer rows (seconds), in report order.
        self.timings: Dict[str, float] = {}
        self._artifacts: Dict[str, Artifact] = {}
        self._ctx = StageContext(self, request)
        self._self_seconds: Dict[str, float] = {}
        self._running: Optional[str] = None
        self._since = 0.0

    @contextmanager
    def _timing(self, name: str) -> Iterator[None]:
        """Charge time to stage ``name`` until exit (pausing the stage
        that pulled it in), inside a ``stage.<name>`` span."""
        outer = self._switch(name)
        try:
            with self.tracer.span(f"stage.{name}"):
                yield
        finally:
            self._switch(outer)

    def _switch(self, name: Optional[str]) -> Optional[str]:
        """Charge the time since the last switch to the running stage,
        make ``name`` the running one and return the previous one."""
        now, running = perf_counter(), self._running
        if running is not None:
            spent = self._self_seconds.get(running, 0.0)
            self._self_seconds[running] = spent + now - self._since
        self._running, self._since = name, now
        return running

    # ------------------------------------------------------------------
    # Artifact resolution
    # ------------------------------------------------------------------
    def artifact(self, name: str) -> Artifact:
        """Resolve ``name`` (memoised per manager): dependencies first,
        then store lookup, then compute-and-store."""
        found = self._artifacts.get(name)
        if found is None:
            with self._timing(name):
                found = self._resolve(STAGES[name])
            self._artifacts[name] = found
        return found

    def _resolve(self, stage: Stage) -> Artifact:
        deps = {dep: self.artifact(dep) for dep in stage.deps}
        store = self.store if stage.cacheable else None
        if store is not None:
            key = request_key(
                stage,
                self.request,
                {name: dep.fingerprint for name, dep in deps.items()},
            )
            entry = store.load(stage.name, key)
            if entry is not None:
                return Artifact(
                    stage=stage.name,
                    data=entry["data"],
                    live=None,
                    outcome="hit",
                    derive_fingerprint=lambda: entry["fingerprint"],
                )
        try:
            output = stage.compute(self._ctx)
        except Exception as exc:
            raise mark_stage(exc, stage.name)

        def derive_fingerprint() -> str:
            content = output.content() if output.content else output.data
            return content_fingerprint(stage.name, stage.version, content)

        found = Artifact(
            stage=stage.name,
            data=output.data,
            live=output.live,
            outcome="computed",
            derive_fingerprint=derive_fingerprint,
        )
        if store is not None:
            store.store(stage.name, key, found.fingerprint, found.data)
        return found

    def _hydrate(self, artifact: Artifact) -> None:
        """Rebuild a store-loaded artifact's live objects: via the
        stage's declared ``hydrate`` when it has one, else by re-running
        its compute over (recursively hydrated) upstreams.  The stored
        data and fingerprint stand — the stages are deterministic."""
        stage = STAGES[artifact.stage]
        try:
            with self._timing(stage.name):
                if stage.hydrate is not None:
                    artifact.live = stage.hydrate(self._ctx, artifact.data)
                else:
                    artifact.live = stage.compute(self._ctx).live
        except Exception as exc:
            raise mark_stage(exc, stage.name)
        artifact.outcome = "hydrated"
        if self.store is not None:
            self.store.count("hydrate", stage.name)

    # ------------------------------------------------------------------
    # StageContext backend
    # ------------------------------------------------------------------
    def data(self, name: str) -> Mapping[str, Any]:
        return self.artifact(name).data

    def fingerprint(self, name: str) -> str:
        return self.artifact(name).fingerprint

    def live(self, name: str, field: str) -> Any:
        artifact = self.artifact(name)
        if artifact.live is None:
            self._hydrate(artifact)
        return artifact.live[field]

    @property
    def outcomes(self) -> Dict[str, str]:
        """Per-stage resolution outcomes so far (``computed`` / ``hit``
        / ``hydrated``), in resolution order."""
        return {
            name: artifact.outcome
            for name, artifact in self._artifacts.items()
        }

    # ------------------------------------------------------------------
    # Driving a whole compilation
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Resolve the full stage sequence of one compilation, including
        the conditional suffixes (``verify``, the SCP stages), through
        ``summarize``; then report the stage timings."""
        started = perf_counter()
        try:
            self._run()
        finally:
            self._report(perf_counter() - started)

    def _run(self) -> None:
        request = self.request
        for name in CORE_STAGE_ORDER:
            self.artifact(name)
        if request.unroll == "auto":
            # The auto acceptance check: the selected factor must close
            # the gap to γ* exactly.  It compares projections only, so
            # hits never hydrate.
            achieved = fraction_from(self.data("rate")["achieved_rate"])
            bound = fraction_from(
                self.data("rate_analysis")["dependence_bound"]
            )
            if achieved != bound:
                factor = int(self.data("unroll")["factor"])
                raise mark_stage(
                    AnalysisError(
                        f"unroll='auto' selected factor {factor} but "
                        f"the achieved per-instruction rate {achieved} "
                        f"does not equal the dependence bound {bound}"
                    ),
                    "rate",
                )
        if request.verify:
            self.artifact("verify")
        if request.pipeline_stages is not None:
            for name in SCP_STAGE_ORDER:
                self.artifact(name)
            if request.verify:
                self.artifact("scp_verify")
        self.artifact("summarize")

    def _report(self, total: float) -> None:
        spent = self._self_seconds
        rows = {f"stage.{n}": spent[n] for n in STAGES if n in spent}
        rows[UNATTRIBUTED_TIMER] = total - sum(rows.values())
        rows[TOTAL_TIMER] = total
        self.timings = rows
        if self.registry.enabled:
            for name, seconds in rows.items():
                self.registry.record_time(name, seconds)


def compile_live(
    request: CompileRequest,
    instrumentation: Optional[Instrumentation] = None,
) -> CompiledLoop:
    """Run the full stage sequence storeless (every stage computes,
    all live artifacts present) and assemble the classic
    :class:`~repro.compiler.result.CompiledLoop`, carrying the payload
    ``summarize`` merged — the engine behind
    :func:`repro.pipeline.compile_loop`."""
    manager = PassManager(request, instrumentation=instrumentation)
    manager.run()
    result = CompiledLoop(
        translation=manager.live("translate", "translation"),
        pn=manager.live("build_pn", "pn"),
        frustum=manager.live("simulate", "frustum"),
        behavior=manager.live("simulate", "behavior"),
        schedule=manager.live("extract_kernel", "schedule"),
        bounds=manager.live("rate", "bounds"),
        rate=manager.live("rate", "rate"),
        payload=manager.data("summarize")["payload"],
        engine=request.engine,
        include_io=request.include_io,
        unroll=manager.live("unroll", "factor"),
        achieved_rate=manager.live("rate", "achieved"),
        dependence_bound=manager.live("rate_analysis", "dependence_bound"),
    )
    if request.pipeline_stages is not None:
        result.scp = manager.live("scp_build", "scp")
        result.scp_frustum = manager.live("scp_simulate", "frustum")
        result.scp_behavior = manager.live("scp_simulate", "behavior")
        result.scp_schedule = manager.live("scp_extract", "schedule")
    return result


def compile_staged(
    request: CompileRequest,
    store: Optional[ArtifactStore] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """Run one compilation (against the per-stage artifact store, when
    one is given) and return ``(payload, outcomes)``: the deterministic
    payload dict ``summarize`` merged (the value
    :meth:`~repro.compiler.result.CompiledLoopSummary.from_payload`
    parses) plus the per-stage resolution outcomes (``computed`` /
    ``hit`` / ``hydrated``).

    The payload is merged from stage projections alone, so a fully
    warm request hydrates nothing — it costs a handful of JSON reads.
    """
    manager = PassManager(
        request, store=store, registry=registry, tracer=tracer
    )
    manager.run()
    return manager.data("summarize")["payload"], manager.outcomes
