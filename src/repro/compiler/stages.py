"""The declared compiler stages.

Each :class:`Stage` is a pure, schema-versioned pass with typed inputs
and outputs, mirroring the paper's own decomposition:

==================  ==============================================  =======
stage               does                                            paper
==================  ==============================================  =======
``parse``           loop text -> loop IR                            §2
``translate``       dependence analysis + SDSP dataflow lowering    §3.2
``rate_analysis``   dependence bound γ* (Howard, data edges)        §4.2
``unroll``          factor selection + mod-U graph rewiring         §4.2
``build_pn``        SDSP-PN construction                            §3.3
``simulate``        earliest-firing behavior, cyclic frustum        §4.1
``extract_kernel``  time-optimal kernel / pipelined schedule        §4.3
``rate``            optimal rate, bounds, achieved-rate check       §4.2
``verify``          dependence/rate proof, every iteration          §4.3
``scp_build``       SDSP-SCP-PN resource model (l-stage pipeline)   §5.2
``scp_simulate``    FIFO-policy behavior + frustum + utilization    §5.2
``scp_extract``     resource-constrained schedule                   §5.2
``scp_verify``      dependence/resource proof of the SCP schedule   §5.2
``summarize``       merge the projections into the payload          —
==================  ==============================================  =======

A stage's ``compute`` runs on live upstream objects obtained through
its :class:`StageContext`; its output is a JSON-ready ``data``
projection (what the artifact store persists), a ``live`` dict of
in-memory objects (what downstream computes and ``compile_loop``
consume), and an optional richer ``content`` structure that feeds the
fingerprint when the projection alone would under-identify the result.

The stage names are also the timing vocabulary: the pass manager
reports each stage's self time as a ``stage.<name>`` timer and span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..core.bounds import theoretical_bounds
from ..core.rate import (
    dependence_bound_rate,
    optimal_rate,
    pipeline_utilization,
)
from ..core.schedule import derive_schedule
from ..core.scp import build_sdsp_scp_pn
from ..core.sdsp import Sdsp
from ..core.sdsp_pn import build_sdsp_pn, sdsp_pn_table
from ..core.verify import verify_schedule
from ..errors import AnalysisError
from ..loops.parser import parse_loop
from ..loops.translate import translate
from ..loops.unroll import MAX_UNROLL, base_firing_totals
from ..machine.policies import FifoRunPlacePolicy
from ..obs.schema import normalize_value
from ..petrinet.behavior import detect_frustum
from ..petrinet.howard import howard_table_analysis
from .artifacts import graph_dump, loop_dump, net_dump
from .result import (
    PAYLOAD_SCHEMA_VERSION,
    bounds_payload,
    fraction_from,
    frustum_payload,
    schedule_from_payload,
    schedule_payload,
)

__all__ = [
    "CompileRequest",
    "Stage",
    "StageContext",
    "StageOutput",
    "STAGES",
    "CORE_STAGE_ORDER",
    "SCP_STAGE_ORDER",
    "select_unroll",
    "verify_base_rate",
]


@dataclass(frozen=True)
class CompileRequest:
    """The validated inputs of one compilation — everything any stage's
    parameters may derive from.  ``scalars`` is normalised to a plain
    ``{name: float}`` dict (or None) so request keys are canonical."""

    source: str
    scalars: Optional[Dict[str, float]] = None
    pipeline_stages: Optional[int] = None
    include_io: bool = True
    verify: bool = True
    engine: str = "event"
    unroll: Union[int, str] = 1


@dataclass
class StageOutput:
    """What one stage compute produced.

    ``data`` is the JSON-ready projection the artifact store persists;
    ``live`` holds the in-memory objects downstream computes need;
    ``content`` (optional) builds the richer canonical structure hashed
    for the fingerprint when ``data`` alone would under-identify the
    output (e.g. ``translate`` stores a light projection but
    fingerprints the full graph dump).  It is a zero-argument callable
    because the fingerprint is derived only when something reads it.
    """

    data: Dict[str, Any]
    live: Dict[str, Any] = field(default_factory=dict)
    content: Optional[Callable[[], Any]] = None


class StageContext:
    """A stage compute's window onto the pass manager: the request,
    upstream artifacts (projection data, live objects, fingerprints)
    and the instrumentation hub for simulation event streaming."""

    def __init__(self, manager, request: CompileRequest) -> None:
        self._manager = manager
        self.request = request

    @property
    def obs(self):
        """The manager's instrumentation hub (a no-op by default)."""
        return self._manager.obs

    def data(self, stage: str) -> Mapping[str, Any]:
        """The ``data`` projection of an upstream artifact."""
        return self._manager.data(stage)

    def live(self, stage: str, name: str) -> Any:
        """A live upstream object, hydrating (recomputing or
        rehydrating from the projection) if the artifact came from the
        store."""
        return self._manager.live(stage, name)

    def fingerprint(self, stage: str) -> str:
        """An upstream artifact's content fingerprint."""
        return self._manager.fingerprint(stage)


@dataclass(frozen=True)
class Stage:
    """One declared compiler pass.

    ``version`` is the stage's code version: bump it whenever the
    stage's computation or output layout changes, and every cached
    artifact of this stage — and, through fingerprint derivation, of
    every downstream stage — stops matching.  ``params`` selects the
    request fields this stage genuinely depends on (nothing else may
    influence its output); ``deps`` name the upstream stages whose
    fingerprints enter this stage's request key.  ``hydrate``, when
    given, rebuilds the live objects from the stored projection
    without recomputing (stages without it re-run ``compute`` over
    hydrated upstreams).  ``cacheable=False`` marks stages that are
    assembled fresh every run (``summarize``).
    """

    name: str
    version: int
    deps: Tuple[str, ...]
    params: Callable[[CompileRequest], Dict[str, Any]]
    compute: Callable[[StageContext], StageOutput]
    hydrate: Optional[
        Callable[[StageContext, Mapping[str, Any]], Dict[str, Any]]
    ] = None
    cacheable: bool = True


# ----------------------------------------------------------------------
# Shared analysis helpers (used by stage computes and re-exported for
# the pipeline façade)
# ----------------------------------------------------------------------
def select_unroll(
    source, bound: Fraction, include_io: bool
) -> Tuple[int, Sdsp]:
    """The smallest unroll factor whose unrolled net is rate-optimal
    per *base* instruction, ``U / α(unroll(g, U)) ==
    dependence_bound_rate(g)``, with the unrolled SDSP it chose.  Each
    candidate is its SDSP-PN's edge table, analysed by Howard: no net is
    built, no candidate is validated (unrolling keeps an SDSP valid),
    and no simulation happens until the factor is chosen.  ``source``
    is an :class:`~repro.core.sdsp.Sdsp` or a raw dataflow graph,
    validated on the way in."""
    sdsp = source if isinstance(source, Sdsp) else Sdsp(source)
    for factor in range(1, MAX_UNROLL + 1):
        candidate = sdsp.unrolled(factor) if factor > 1 else sdsp
        table = sdsp_pn_table(candidate, include_io=include_io)
        alpha = howard_table_analysis(
            table.transitions, table.edges, table.durations
        ).cycle_time
        if factor / alpha == bound:
            return factor, candidate
    raise AnalysisError(
        f"no unroll factor up to {MAX_UNROLL} closes the rate gap to "
        f"the dependence bound {bound}; pass an explicit unroll factor"
    )


def verify_base_rate(
    firing_counts: Mapping[str, int],
    length: int,
    transition_names,
    factor: int,
    rate: Fraction,
) -> Fraction:
    """The hard acceptance check of the unrolling path: every *base*
    instruction's steady-state rate (its copies' frustum firings summed
    over the frustum length) must equal ``factor * rate`` exactly.  Any
    miss is an :class:`~repro.errors.AnalysisError`, never a silent
    under-achieve.  Operates on projections only, so it runs
    identically on live and store-loaded artifacts.
    """
    if length == 0:
        raise AnalysisError("detected frustum is empty; no rate to verify")
    expected = factor * rate
    totals = base_firing_totals(firing_counts, transition_names)
    for base, count in sorted(totals.items()):
        achieved = Fraction(count, length)
        if achieved != expected:
            raise AnalysisError(
                f"unrolled (x{factor}) frustum under-achieves: base "
                f"instruction {base!r} runs at {achieved} per cycle, "
                f"expected exactly {expected}"
            )
    return expected


# ----------------------------------------------------------------------
# Stage computes
# ----------------------------------------------------------------------
def _parse(ctx: StageContext) -> StageOutput:
    loop = parse_loop(ctx.request.source)
    return StageOutput(
        data={
            "loop": loop.name,
            "parallel": bool(loop.parallel),
            "n_statements": len(loop.statements),
        },
        live={"loop": loop},
        content=lambda: loop_dump(loop),
    )


def _translate(ctx: StageContext) -> StageOutput:
    translation = translate(ctx.live("parse", "loop"), ctx.request.scalars)
    graph = translation.graph
    # the compile's one validation: later stages take this SDSP
    sdsp = Sdsp(graph)
    return StageOutput(
        data={
            "loop": translation.loop.name,
            "n_actors": len(graph.actors),
            "n_arcs": len(graph.arcs),
        },
        live={"translation": translation, "sdsp": sdsp},
        content=lambda: {
            "graph": graph_dump(graph),
            "scalar_bindings": dict(translation.scalar_bindings),
            "root_of": dict(translation.root_of),
            "feedback_initial_keys": {
                name: list(keys)
                for name, keys in translation.feedback_initial_keys.items()
            },
            "feedback_depths": dict(translation.feedback_depths),
        },
    )


def _rate_analysis(ctx: StageContext) -> StageOutput:
    bound = dependence_bound_rate(
        ctx.live("translate", "sdsp"), include_io=ctx.request.include_io
    )
    return StageOutput(
        data={
            "dependence_bound": str(bound),
            "dependence_cycle_time": str(1 / bound),
        },
        live={"dependence_bound": bound},
    )


def _unroll(ctx: StageContext) -> StageOutput:
    requested = ctx.request.unroll
    sdsp = ctx.live("translate", "sdsp")
    if requested == "auto":
        bound = fraction_from(ctx.data("rate_analysis")["dependence_bound"])
        factor, unrolled = select_unroll(
            sdsp, bound, include_io=ctx.request.include_io
        )
    else:
        factor = requested
        unrolled = sdsp.unrolled(factor) if factor > 1 else sdsp
    graph = unrolled.graph
    return StageOutput(
        data={
            "factor": factor,
            "n_actors": len(graph.actors),
            "n_arcs": len(graph.arcs),
        },
        live={"sdsp": unrolled, "factor": factor},
        content=lambda: {"factor": factor, "graph": graph_dump(graph)},
    )


def _build_pn(ctx: StageContext) -> StageOutput:
    pn = build_sdsp_pn(
        ctx.live("unroll", "sdsp"), include_io=ctx.request.include_io
    )
    return StageOutput(
        data={
            "net_size": pn.size,
            "n_transitions": len(pn.net.transition_names),
            "transitions": list(pn.net.transition_names),
        },
        live={"pn": pn},
        content=lambda: net_dump(pn),
    )


def _simulate(ctx: StageContext) -> StageOutput:
    pn = ctx.live("build_pn", "pn")
    frustum, behavior = detect_frustum(
        pn.timed,
        pn.initial,
        instrumentation=ctx.obs,
        engine=ctx.request.engine,
    )
    return StageOutput(
        data={"frustum": frustum_payload(frustum)},
        live={"frustum": frustum, "behavior": behavior},
    )


def _extract_kernel(ctx: StageContext) -> StageOutput:
    schedule = derive_schedule(
        ctx.live("simulate", "frustum"), ctx.live("simulate", "behavior")
    )
    return StageOutput(
        data={"schedule": schedule_payload(schedule)},
        live={"schedule": schedule},
    )


def _hydrate_extract_kernel(
    ctx: StageContext, data: Mapping[str, Any]
) -> Dict[str, Any]:
    return {"schedule": schedule_from_payload(data["schedule"])}


def _rate(ctx: StageContext) -> StageOutput:
    pn = ctx.live("build_pn", "pn")
    rate = optimal_rate(pn)
    bounds = theoretical_bounds(pn)
    frustum = ctx.data("simulate")["frustum"]
    achieved = verify_base_rate(
        frustum["firing_counts"],
        int(frustum["length"]),
        ctx.data("build_pn")["transitions"],
        int(ctx.data("unroll")["factor"]),
        rate,
    )
    return StageOutput(
        data={
            "rate": str(rate),
            "achieved_rate": str(achieved),
            "bounds": bounds_payload(bounds),
        },
        live={"rate": rate, "achieved": achieved, "bounds": bounds},
    )


def _verify(ctx: StageContext) -> StageOutput:
    verify_schedule(
        ctx.live("build_pn", "pn"),
        ctx.live("extract_kernel", "schedule"),
        expected_rate=fraction_from(ctx.data("rate")["rate"]),
    ).require()
    return StageOutput(data={"verified": True})


def _scp_build(ctx: StageContext) -> StageOutput:
    scp = build_sdsp_scp_pn(
        ctx.live("build_pn", "pn"), ctx.request.pipeline_stages
    )
    policy = FifoRunPlacePolicy(scp.net, scp.run_place, scp.priority_order())
    return StageOutput(
        data={
            "stages": scp.stages,
            "size": scp.size,
            "sdsp_transitions": list(scp.sdsp_transitions),
        },
        live={"scp": scp, "policy": policy},
        # SCP construction is a pure function of the SDSP-PN and the
        # depth, so the upstream fingerprint identifies it exactly.
        content=lambda: {
            "pn": ctx.fingerprint("build_pn"),
            "stages": scp.stages,
        },
    )


def _scp_simulate(ctx: StageContext) -> StageOutput:
    scp = ctx.live("scp_build", "scp")
    frustum, behavior = detect_frustum(
        scp.timed,
        scp.initial,
        ctx.live("scp_build", "policy"),
        instrumentation=ctx.obs,
        engine=ctx.request.engine,
    )
    return StageOutput(
        data={
            "frustum": frustum_payload(frustum),
            "utilization": str(pipeline_utilization(scp, frustum)),
        },
        live={"frustum": frustum, "behavior": behavior},
    )


def _scp_extract(ctx: StageContext) -> StageOutput:
    schedule = derive_schedule(
        ctx.live("scp_simulate", "frustum"),
        ctx.live("scp_simulate", "behavior"),
        instructions=tuple(ctx.data("scp_build")["sdsp_transitions"]),
    )
    return StageOutput(
        data={"schedule": schedule_payload(schedule)},
        live={"schedule": schedule},
    )


def _hydrate_scp_extract(
    ctx: StageContext, data: Mapping[str, Any]
) -> Dict[str, Any]:
    return {"schedule": schedule_from_payload(data["schedule"])}


def _scp_verify(ctx: StageContext) -> StageOutput:
    stages = ctx.request.pipeline_stages
    verify_schedule(
        ctx.live("build_pn", "pn"),
        ctx.live("scp_extract", "schedule"),
        capacity=1,
        latency_of=lambda t: stages,
    ).require()
    return StageOutput(data={"verified": True})


def _summarize(ctx: StageContext) -> StageOutput:
    """The payload: the upstream projections, merged.  They are JSON-ready
    already; only the rationals are re-normalised (stages project them
    as ``str(Fraction)``, the payload writes integral ones as ints)."""
    request = ctx.request
    rate_data = ctx.data("rate")
    rate = fraction_from(rate_data["rate"])
    build_pn = ctx.data("build_pn")
    schedule = ctx.data("extract_kernel")["schedule"]
    payload = {
        "payload_schema": PAYLOAD_SCHEMA_VERSION,
        "loop": ctx.data("parse")["loop"],
        "engine": request.engine,
        "include_io": request.include_io,
        "pipeline_stages": request.pipeline_stages,
        "unroll": ctx.data("unroll")["factor"],
        "achieved_rate": _rational(rate_data["achieved_rate"]),
        "dependence_bound": _rational(
            ctx.data("rate_analysis")["dependence_bound"]
        ),
        "rate": normalize_value(rate),
        "cycle_time": normalize_value(1 / rate),
        "initiation_interval": schedule["initiation_interval"],
        "iterations_per_kernel": schedule["iterations_per_kernel"],
        "net_size": build_pn["net_size"],
        "n_transitions": build_pn["n_transitions"],
        "bounds": rate_data["bounds"],
        "frustum": ctx.data("simulate")["frustum"],
        "schedule": schedule,
    }
    if request.pipeline_stages is not None:
        scp = ctx.data("scp_simulate")
        payload["scp"] = {
            "utilization": _rational(scp["utilization"]),
            "frustum": scp["frustum"],
            "schedule": ctx.data("scp_extract")["schedule"],
        }
    return StageOutput(data={"payload": payload})


def _rational(text: str) -> Union[int, str]:
    return normalize_value(fraction_from(text))


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
STAGES: Dict[str, Stage] = {
    stage.name: stage
    for stage in (
        Stage(
            name="parse",
            version=1,
            deps=(),
            params=lambda r: {"source": r.source},
            compute=_parse,
        ),
        Stage(
            name="translate",
            version=1,
            deps=("parse",),
            params=lambda r: {"scalars": r.scalars},
            compute=_translate,
        ),
        Stage(
            name="rate_analysis",
            version=1,
            deps=("translate",),
            params=lambda r: {"include_io": r.include_io},
            compute=_rate_analysis,
        ),
        Stage(
            name="unroll",
            version=1,
            deps=("translate", "rate_analysis"),
            params=lambda r: {
                "unroll": r.unroll,
                "include_io": r.include_io,
            },
            compute=_unroll,
        ),
        Stage(
            name="build_pn",
            version=1,
            deps=("unroll",),
            params=lambda r: {"include_io": r.include_io},
            compute=_build_pn,
        ),
        Stage(
            name="simulate",
            version=1,
            deps=("build_pn",),
            params=lambda r: {"engine": r.engine},
            compute=_simulate,
        ),
        Stage(
            name="extract_kernel",
            version=1,
            deps=("simulate",),
            params=lambda r: {},
            compute=_extract_kernel,
            hydrate=_hydrate_extract_kernel,
        ),
        Stage(
            name="rate",
            version=1,
            deps=("build_pn", "simulate", "unroll"),
            params=lambda r: {},
            compute=_rate,
        ),
        Stage(
            # v2: the verdict holds for every iteration (periodic
            # certificate), not the first 12
            name="verify",
            version=2,
            deps=("build_pn", "extract_kernel", "rate"),
            params=lambda r: {},
            compute=_verify,
        ),
        Stage(
            name="scp_build",
            version=1,
            deps=("build_pn",),
            params=lambda r: {"pipeline_stages": r.pipeline_stages},
            compute=_scp_build,
        ),
        Stage(
            name="scp_simulate",
            version=1,
            deps=("scp_build",),
            params=lambda r: {"engine": r.engine},
            compute=_scp_simulate,
        ),
        Stage(
            name="scp_extract",
            version=1,
            deps=("scp_simulate", "scp_build"),
            params=lambda r: {},
            compute=_scp_extract,
            hydrate=_hydrate_scp_extract,
        ),
        Stage(
            name="scp_verify",  # v2: as for verify
            version=2,
            deps=("build_pn", "scp_extract"),
            params=lambda r: {"pipeline_stages": r.pipeline_stages},
            compute=_scp_verify,
        ),
        Stage(
            name="summarize",
            version=1,
            deps=(
                "parse",
                "rate_analysis",
                "unroll",
                "build_pn",
                "simulate",
                "extract_kernel",
                "rate",
            ),
            params=lambda r: {
                "engine": r.engine,
                "include_io": r.include_io,
                "pipeline_stages": r.pipeline_stages,
                "unroll": r.unroll,
            },
            compute=_summarize,
            cacheable=False,
        ),
    )
}

#: The execution order of the unconditional stages.
CORE_STAGE_ORDER: Tuple[str, ...] = (
    "parse",
    "translate",
    "rate_analysis",
    "unroll",
    "build_pn",
    "simulate",
    "extract_kernel",
    "rate",
)

#: The resource-model suffix, run only when a pipeline depth was
#: requested (``scp_verify`` additionally requires ``verify=True``).
SCP_STAGE_ORDER: Tuple[str, ...] = (
    "scp_build",
    "scp_simulate",
    "scp_extract",
)
