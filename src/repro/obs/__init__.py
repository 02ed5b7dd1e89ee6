"""Observability: structured simulator tracing, metrics and logging.

This package turns every simulation into an inspectable timeline and
gives the performance work a measurement substrate:

* :mod:`repro.obs.events` — structured event API (``FiringStarted``,
  ``FiringCompleted``, ``StateSnapshot``, ``FrustumDetected``) behind
  an opt-in :class:`Instrumentation` hub whose default,
  :data:`NULL_INSTRUMENTATION`, is a falsy no-op — hot loops pay a
  single pointer check when tracing is off;
* :mod:`repro.obs.trace` — JSONL and Chrome/Perfetto trace sinks (one
  track per transition, one slice per firing: the paper's behavior
  graph rendered by a trace viewer), streaming + crash-tolerant;
* :mod:`repro.obs.spans` — cross-process span tracing: ``Span`` records
  with trace/span/parent ids, the context-manager ``Tracer`` API (no-op
  :data:`NULL_TRACER` default), ``TraceContext`` propagation into sweep
  workers, and durable per-worker JSONL span shards;
* :mod:`repro.obs.trace_merge` — merges worker span shards plus the
  parent's spans into one Chrome/Perfetto trace with one lane per
  worker (deterministic order, clock-skew normalization);
* :mod:`repro.obs.metrics` — counters/gauges/histograms/
  ``perf_counter`` timers with a ``@timed`` decorator and a
  JSON-dumpable registry;
* :mod:`repro.obs.openmetrics` — OpenMetrics text exposition of any
  registry (``repro sweep --metrics-out``, ``repro metrics``), with
  spec-compliant label-value escaping;
* :mod:`repro.obs.causality` — the enabling DAG of a traced run (one
  node per firing, one edge per consumed token) plus the wait-state
  decomposition; the substrate of ``repro explain``
  (:mod:`repro.core.blame`);
* :mod:`repro.obs.logging_setup` — stdlib logging wiring with a
  ``REPRO_LOG`` environment override;
* :mod:`repro.obs.schema` / :mod:`repro.obs.ledger` — the normalized,
  schema-versioned run-record format and the append-only JSONL run
  ledger under ``benchmarks/ledger/``;
* :mod:`repro.obs.regression` — the benchmark regression gate behind
  ``repro bench-check`` (hard failures on correctness drift, soft
  reports on wall-clock growth).

Quick use::

    from repro import compile_loop
    from repro.obs import Instrumentation, ChromeTraceSink

    obs = Instrumentation()
    obs.add_sink(ChromeTraceSink("trace.json"))
    compile_loop(source, instrumentation=obs)
    obs.close()          # open trace.json in ui.perfetto.dev
"""

from .events import (
    Event,
    EventSink,
    FiringCompleted,
    FiringStarted,
    FrustumDetected,
    Instrumentation,
    ListSink,
    NullInstrumentation,
    NULL_INSTRUMENTATION,
    StateSnapshot,
)
from .causality import (
    EnablingDag,
    EnablingEdge,
    Firing,
    WaitProfile,
    build_enabling_dag,
    wait_profiles,
)
from .logging_setup import logging_setup
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    time_block,
    timed,
)
from .openmetrics import (
    dump_from_record,
    escape_label_value,
    format_labels,
    parse_exposition,
    parse_labels,
    render_openmetrics,
    sanitize_metric_name,
)
from .spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanShardWriter,
    TraceContext,
    Tracer,
    read_shard,
    shard_paths,
)
from .trace_merge import load_merged_spans, merge_traces, write_trace
from .ledger import (
    BASELINE_FILE,
    RUNS_FILE,
    append_record,
    default_ledger_dir,
    environment_info,
    git_sha,
    latest_by_name,
    load_records,
    make_run_record,
    resolve_env_dir,
)
from .regression import (
    Difference,
    GateReport,
    compare_records,
    load_results_records,
    run_gate,
)
from .schema import (
    SCHEMA_VERSION,
    normalize_payload,
    stable_json,
    validate_record,
)
from .trace import ChromeTraceSink, JsonlTraceSink, load_trace_events

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanShardWriter",
    "read_shard",
    "shard_paths",
    "merge_traces",
    "write_trace",
    "load_merged_spans",
    "load_trace_events",
    "Gauge",
    "render_openmetrics",
    "dump_from_record",
    "parse_exposition",
    "sanitize_metric_name",
    "escape_label_value",
    "format_labels",
    "parse_labels",
    "EnablingDag",
    "EnablingEdge",
    "Firing",
    "WaitProfile",
    "build_enabling_dag",
    "wait_profiles",
    "Event",
    "EventSink",
    "FiringStarted",
    "FiringCompleted",
    "StateSnapshot",
    "FrustumDetected",
    "Instrumentation",
    "NullInstrumentation",
    "NULL_INSTRUMENTATION",
    "ListSink",
    "JsonlTraceSink",
    "ChromeTraceSink",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "timed",
    "time_block",
    "logging_setup",
    "SCHEMA_VERSION",
    "normalize_payload",
    "stable_json",
    "validate_record",
    "BASELINE_FILE",
    "RUNS_FILE",
    "append_record",
    "default_ledger_dir",
    "environment_info",
    "git_sha",
    "latest_by_name",
    "load_records",
    "make_run_record",
    "resolve_env_dir",
    "Difference",
    "GateReport",
    "compare_records",
    "load_results_records",
    "run_gate",
]
