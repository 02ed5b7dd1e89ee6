"""The staged compiler core.

The monolithic ``compile_loop`` flow, decomposed into declared, pure,
schema-versioned passes:

* :mod:`repro.compiler.stages` — the stage registry (parse through
  summarize), each with typed input/output artifacts;
* :mod:`repro.compiler.manager` — the pull-based
  :class:`~repro.compiler.manager.PassManager`, request-key
  derivation, hydration, stage-tagged failure attribution and the
  per-stage timing every compile reports (``stage.<name>`` timers);
* :mod:`repro.compiler.store` — the content-addressed
  :class:`~repro.compiler.store.ArtifactStore`, the one on-disk cache
  (stage artifacts and whole payloads);
* :mod:`repro.compiler.artifacts` — canonical dumps and the
  fingerprint scheme that lets different requests converge on shared
  artifacts;
* :mod:`repro.compiler.result` — the ``CompiledLoop`` result type and
  ``CompiledLoopSummary``, the parsed view of the payload the
  ``summarize`` stage merges (both re-exported through
  :mod:`repro.pipeline`).

:func:`repro.pipeline.compile_loop` remains the public façade; this
package is the implementation plus the staged entry points
(:func:`~repro.compiler.manager.compile_staged`) that sweep and the
service use for per-stage caching.
"""

from .artifacts import content_fingerprint, graph_dump, loop_dump, net_dump
from .manager import (
    Artifact,
    PassManager,
    compile_live,
    compile_staged,
    failing_stage,
    in_report_order,
    make_request,
    mark_stage,
    request_key,
    split_timers,
    stage_ordered_exposition,
)
from .result import (
    PAYLOAD_SCHEMA_VERSION,
    CompiledLoop,
    CompiledLoopSummary,
    FrustumSummary,
    fraction_from,
    frustum_payload,
    schedule_from_payload,
    schedule_payload,
)
from .stages import (
    CORE_STAGE_ORDER,
    SCP_STAGE_ORDER,
    STAGES,
    CompileRequest,
    Stage,
    StageContext,
    StageOutput,
)
from .store import (
    STAGE_CACHE_OUTCOMES,
    STORE_SCHEMA_VERSION,
    ArtifactStore,
)

__all__ = [
    "Artifact",
    "ArtifactStore",
    "CompileRequest",
    "CompiledLoop",
    "CompiledLoopSummary",
    "CORE_STAGE_ORDER",
    "FrustumSummary",
    "PAYLOAD_SCHEMA_VERSION",
    "PassManager",
    "SCP_STAGE_ORDER",
    "STAGE_CACHE_OUTCOMES",
    "STAGES",
    "STORE_SCHEMA_VERSION",
    "Stage",
    "StageContext",
    "StageOutput",
    "compile_live",
    "compile_staged",
    "content_fingerprint",
    "failing_stage",
    "fraction_from",
    "frustum_payload",
    "graph_dump",
    "in_report_order",
    "loop_dump",
    "make_request",
    "mark_stage",
    "net_dump",
    "request_key",
    "schedule_from_payload",
    "schedule_payload",
    "split_timers",
    "stage_ordered_exposition",
]
