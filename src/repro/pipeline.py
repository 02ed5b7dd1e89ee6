"""End-to-end convenience pipeline: loop text in, verified schedule out.

This is the public façade over the staged compiler core
(:mod:`repro.compiler`), which decomposes the flow of the paper into
declared, pure passes:

1. parse the loop (``repro.loops.parser``);
2. dependence analysis + lowering to a static dataflow graph
   (``repro.loops``);
3. SDSP-PN construction (``repro.core.sdsp_pn``), optionally the
   SDSP-SCP-PN resource model (``repro.core.scp``);
4. behavior-graph simulation under the earliest firing rule and
   cyclic-frustum detection (``repro.petrinet.behavior``);
5. schedule derivation (``repro.core.schedule``) and — unless disabled
   — verification of dependences, resources and optimality
   (``repro.core.verify``).

:func:`compile_loop` keeps its historical signature and semantics
(every stage computes, all live artifacts present on the result);
batch and service callers that want per-stage artifact caching use
:func:`repro.compiler.compile_staged` directly.  The result types
live in :mod:`repro.compiler.result` and are re-exported here
unchanged, so ``from repro.pipeline import CompiledLoopSummary``
keeps working and every payload stays byte-identical.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .compiler.manager import compile_live, make_request
from .compiler.result import (
    PAYLOAD_SCHEMA_VERSION,
    CompiledLoop,
    CompiledLoopSummary,
    FrustumSummary,
)
from .obs.events import Instrumentation

__all__ = [
    "PAYLOAD_SCHEMA_VERSION",
    "CompiledLoop",
    "CompiledLoopSummary",
    "FrustumSummary",
    "compile_loop",
]


def compile_loop(
    source: str,
    scalars: Optional[Mapping[str, float]] = None,
    pipeline_stages: Optional[int] = None,
    include_io: bool = True,
    verify: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    engine: str = "event",
    unroll: Union[int, str] = 1,
) -> CompiledLoop:
    """Compile loop source text through the whole pipeline.

    Parameters
    ----------
    source:
        Loop text in the frontend syntax (see
        :mod:`repro.loops.parser`).
    scalars:
        Values for loop-invariant scalars (become immediates).
    pipeline_stages:
        If given, also build the SDSP-SCP-PN for a clean pipeline of
        that depth and derive its resource-constrained schedule.
    include_io:
        A-code mode (loads/stores are instructions) when True; the
        paper-figure abstract mode when False.
    verify:
        Prove the derived schedule against every dependence and
        buffer constraint and its kernel rate against the optimal
        rate, and the SCP schedule against every dependence at the
        pipeline latency and the single issue slot, for every
        iteration of the unbounded prologue + kernel schedule
        (:mod:`repro.core.verify`; no finite replay, and no
        value-level execution).  Raises
        :class:`repro.errors.ScheduleError` on any violation.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation`.  When given, the
        behavior-graph simulations stream firing/snapshot/frustum
        events to its sinks.  Defaults to a no-op.  Stage timing needs
        no argument: while the process-wide registry is enabled
        (``--profile``), every compile records each stage's self time
        as a ``stage.<name>`` timer plus ``compile.unattributed`` and
        ``compile.total`` (:mod:`repro.compiler.manager`).
    engine:
        Simulation engine for frustum detection: ``"event"`` (default)
        jumps between completion instants and does work proportional to
        firings; ``"step"`` advances one time unit at a time.  Both
        produce bit-identical frusta and schedules (cross-validated by
        the test suite); the choice only affects detection cost.
    unroll:
        Loop unrolling factor (:mod:`repro.loops.unroll`).  ``1``
        (default) compiles the base body exactly as before.  An integer
        ``U`` (up to :data:`~repro.loops.unroll.MAX_UNROLL`) replicates
        the body ``U`` times with the mod-U distance rewiring rule;
        ``"auto"`` picks the smallest ``U`` whose per-base-instruction
        rate equals the dependence bound ``γ*`` exactly.  Either way
        the detected steady state is verified to achieve ``U *
        optimal_rate`` per base instruction (exact
        :class:`~fractions.Fraction` equality) — a miss raises
        :class:`~repro.errors.AnalysisError`.
    """
    request = make_request(
        source,
        scalars=scalars,
        pipeline_stages=pipeline_stages,
        include_io=include_io,
        verify=verify,
        engine=engine,
        unroll=unroll,
    )
    return compile_live(request, instrumentation=instrumentation)
