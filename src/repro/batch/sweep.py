"""``compile_many``: fan a sweep manifest out over a process pool.

Design rules, all of which the test suite pins down:

* **deterministic merge** — results are ordered by manifest index, not
  completion order, so the merged payload is byte-identical for
  ``workers=1`` vs ``workers=N`` and for cold vs warm cache;
* **failure isolation** — an item that raises (parse error,
  :class:`~repro.errors.ScheduleError`, ...) becomes a structured
  ``{"type", "message"}`` error record at its manifest position; the
  rest of the batch is unaffected and no half-written cache entry can
  result (stores are atomic, and failures are never cached);
* **volatile vs stable** — cache hit/miss counts, wall clocks, span
  timings and worker lanes are measurement artifacts (they differ
  between cold and warm runs by definition), so they live in
  :meth:`SweepResult.cache_stats` / :meth:`SweepResult.timing_summary`
  and the metrics registry, never inside
  :meth:`SweepResult.merged_payload`.

Workers are plain module-level functions over plain data
(:class:`~repro.batch.manifest.SweepItem`), so the pool works under
both fork and spawn start methods.

Cross-process tracing: pass a truthy :class:`~repro.obs.spans.Tracer`
(and, for ``workers > 1``, a ``shard_dir``) and every worker joins the
parent's trace via a pool initializer — each pool process builds its
own :class:`~repro.obs.spans.Tracer` from the propagated
:class:`~repro.obs.spans.TraceContext` and streams finished spans into
a JSONL shard keyed by its pid (``spans-<pid>.jsonl``).  Item compiles
become ``item:<name>`` spans with ``cache.lookup`` / ``compile`` /
``cache.store`` children, and the pass manager nests one
``stage.<name>`` span per compiler stage inside ``compile``, so the
merged trace shows the full pipeline inside every item, one lane per
worker.  The same stage rows come back to the parent in every item's
result (:attr:`SweepItemResult.timings`), traced or not.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

# Called through the package, so a wrapper installed on
# repro.compiler.compile_staged (tpnbench's compiler.staged layer) sees
# every compile.
from .. import compiler
from ..compiler.store import STAGE_CACHE_OUTCOMES, record_counts
from ..errors import ReproError
from ..obs.metrics import Histogram, MetricsRegistry, default_registry
from ..obs.spans import (
    NULL_TRACER,
    SpanShardWriter,
    TraceContext,
    Tracer,
    shard_paths,
)
from .cache import PAYLOAD_STAGE, CompileCache
from .manifest import SweepItem
from .progress import SweepProgress

__all__ = [
    "SweepItemResult",
    "SweepResult",
    "compile_item_task",
    "compile_one",
    "compile_many",
    "item_result_from_entry",
    "pool_worker_init",
    "record_timings",
]

#: The payload view's outcomes (a payload entry is never hydrated).
_PAYLOAD_OUTCOMES = ("hit", "miss", "corrupt", "store")


@dataclass
class SweepItemResult:
    """One manifest item's outcome, at its manifest position.

    ``wall``, ``worker`` and ``timings`` are volatile measurement
    artifacts (like ``store_counts``): the item's compile wall-clock,
    the lane that ran it, and the pass manager's timer rows for its
    compile (``stage.<name>`` self times, ``compile.unattributed``,
    ``compile.total``; empty for a whole-payload cache hit).
    ``store_counts`` is the artifact store's ``{stage: {outcome: n}}``
    tally for the item (``None`` with the cache off), read through
    :attr:`cache_stats` and :attr:`stage_stats`; ``stage_outcomes`` is
    each compiler stage's resolution (``computed`` / ``hit`` /
    ``hydrated``) when a cached item went through the staged compiler.
    None of them reach :meth:`record` — except the failing *stage* name
    inside ``error``, which is deterministic (a failure recurs at the
    same stage whether its upstream artifacts were cached or not).
    """

    index: int
    name: str
    status: str  # "ok" | "error"
    payload: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    cache_hit: bool = False
    cache_lookup: bool = False
    key: Optional[str] = None
    wall: float = 0.0
    worker: Optional[str] = None
    timings: Optional[Dict[str, float]] = None
    store_counts: Optional[Dict[str, Dict[str, int]]] = None
    stage_outcomes: Optional[Dict[str, str]] = None

    @property
    def ok(self) -> bool:
        """Whether the item compiled (or rehydrated) successfully."""
        return self.status == "ok"

    @property
    def cache_stats(self) -> Dict[str, int]:
        """The whole-payload view of :attr:`store_counts`: the
        :data:`~repro.batch.cache.PAYLOAD_STAGE` entry's outcomes."""
        payload = (self.store_counts or {}).get(PAYLOAD_STAGE, {})
        return {
            outcome: payload.get(outcome, 0) for outcome in _PAYLOAD_OUTCOMES
        }

    @property
    def stage_stats(self) -> Dict[str, int]:
        """The stage-artifact view of :attr:`store_counts`: every other
        stage's outcomes, summed."""
        totals = dict.fromkeys(STAGE_CACHE_OUTCOMES, 0)
        for stage, outcomes in (self.store_counts or {}).items():
            if stage != PAYLOAD_STAGE:
                for outcome, count in outcomes.items():
                    totals[outcome] += count
        return totals

    def summary(self):
        """The parsed view of this item's payload, a
        :class:`repro.pipeline.CompiledLoopSummary` (``None`` for error
        items)."""
        if self.payload is None:
            return None
        from ..pipeline import CompiledLoopSummary

        return CompiledLoopSummary.from_payload(self.payload)

    def record(self) -> Dict[str, Any]:
        """The deterministic per-item entry of the merged payload —
        deliberately free of cache/worker information."""
        entry: Dict[str, Any] = {"name": self.name, "status": self.status}
        if self.error is not None:
            entry["error"] = dict(self.error)
        else:
            entry["payload"] = self.payload
        return entry


@dataclass
class SweepResult:
    """Everything one :func:`compile_many` call produced.

    ``span_shards`` lists the per-worker JSONL span-shard files of a
    traced parallel sweep (empty when tracing was off or the sweep ran
    serially in-process) — feed them to
    :func:`repro.obs.trace_merge.merge_traces`.
    """

    items: List[SweepItemResult]
    workers: int
    cache_dir: Optional[str] = None
    span_shards: List[str] = field(default_factory=list)

    @property
    def n_items(self) -> int:
        """How many manifest items the sweep processed."""
        return len(self.items)

    @property
    def n_errors(self) -> int:
        """How many items failed to compile."""
        return sum(1 for item in self.items if not item.ok)

    @property
    def errors(self) -> List[SweepItemResult]:
        """The failed items, in manifest order."""
        return [item for item in self.items if not item.ok]

    def merged_payload(self) -> Dict[str, Any]:
        """The stable merged record: manifest order, no volatile data.

        Byte-identical (under :func:`repro.obs.stable_json`) across
        worker counts and cache states — the acceptance property of the
        batch subsystem.
        """
        return {
            "n_items": self.n_items,
            "n_errors": self.n_errors,
            "items": [item.record() for item in self.items],
        }

    def cache_stats(self) -> Dict[str, int]:
        """Aggregated cache counters over every item (volatile —
        reported through ``timing.metrics`` in ledger records)."""
        totals = dict.fromkeys(_PAYLOAD_OUTCOMES, 0)
        totals["items"] = self.n_items
        totals["errors"] = self.n_errors
        for item in self.items:
            for outcome, count in item.cache_stats.items():
                totals[outcome] += count
        return totals

    def stage_cache_stats(self) -> Dict[str, Any]:
        """Aggregated per-stage artifact-cache counters over every item
        (volatile, like :meth:`cache_stats`): totals per outcome plus a
        ``by_stage`` breakdown of how each compiler stage resolved
        (``computed`` / ``hit`` / ``hydrated``) across the items that
        went through the staged compiler."""
        totals: Dict[str, Any] = dict.fromkeys(STAGE_CACHE_OUTCOMES, 0)
        by_stage: Dict[str, Dict[str, int]] = {}
        for item in self.items:
            for outcome, count in item.stage_stats.items():
                totals[outcome] += count
            for stage, outcome in (item.stage_outcomes or {}).items():
                per = by_stage.setdefault(stage, {})
                per[outcome] = per.get(outcome, 0) + 1
        totals["by_stage"] = {
            stage: dict(sorted(outcomes.items()))
            for stage, outcomes in sorted(by_stage.items())
        }
        return totals

    @property
    def hit_rate(self) -> float:
        """Cache hits over the items whose lookup could have been
        served: items that actually performed a cache lookup **and**
        compiled successfully.

        Two groups are deliberately excluded from the denominator:

        * items compiled with the cache off — they performed no lookup,
          so they say nothing about the cache (a sweep with no lookups
          at all reports ``0.0``);
        * errored items — failures are never stored (see the module
          docstring), so their lookups can never hit by design;
          counting them would pin a fully-warm sweep over a manifest
          containing one known-bad loop below 100% forever and make
          ``--require-hits`` unsatisfiable.
        """
        looked_up = [i for i in self.items if i.cache_lookup and i.ok]
        if not looked_up:
            return 0.0
        return sum(1 for item in looked_up if item.cache_hit) / len(looked_up)

    def timing_summary(self) -> Dict[str, Any]:
        """The volatile per-lane / per-stage timing summary stored
        under ``timing.spans`` in sweep ledger records.

        * ``lanes`` — items and busy seconds per worker lane;
        * ``critical_path`` — the lane whose busy time bounds the
          sweep's wall clock (items are independent, so the slowest
          chain of item spans is the busiest worker's), with its
          slowest items;
        * ``stages`` — p50/p95 per compile timer row (the stages in
          stage order, then ``compile.unattributed`` and
          ``compile.total``), then ``item`` for whole-item wall clocks,
          via :meth:`~repro.obs.metrics.Histogram.percentile`, each
          tagged ``exact_percentiles`` (``False`` once the
          retained-sample window overflowed — printers mark those with
          ``~``).
        """
        lanes: Dict[str, Dict[str, Any]] = {}
        hists: Dict[str, Histogram] = {}

        def observe(name: str, seconds: float) -> None:
            hist = hists.get(name)
            if hist is None:
                hist = hists[name] = Histogram(name)
            hist.observe(seconds)

        for item in self.items:
            lane = lanes.setdefault(
                item.worker or "unknown",
                {"items": 0, "busy_seconds": 0.0},
            )
            lane["items"] += 1
            lane["busy_seconds"] += item.wall
            observe("item", item.wall)
            for name, seconds in (item.timings or {}).items():
                observe(name, seconds)

        critical: Optional[Dict[str, Any]] = None
        if lanes:
            worker = max(lanes, key=lambda w: lanes[w]["busy_seconds"])
            chain = sorted(
                (i for i in self.items if (i.worker or "unknown") == worker),
                key=lambda i: -i.wall,
            )
            critical = {
                "worker": worker,
                "busy_seconds": lanes[worker]["busy_seconds"],
                "items": [
                    {"name": i.name, "seconds": i.wall} for i in chain[:5]
                ],
            }
        return {
            "n_items": self.n_items,
            "busy_seconds": sum(item.wall for item in self.items),
            "lanes": lanes,
            "critical_path": critical,
            "stages": {
                name: {
                    "count": hist.count,
                    "p50": hist.percentile(50),
                    "p95": hist.percentile(95),
                    "exact_percentiles": hist.exact_percentiles,
                }
                for name, hist in compiler.in_report_order(hists).items()
            },
        }


#: Per-process tracing state, installed by :func:`pool_worker_init` in pool
#: workers (and set temporarily by :func:`compile_many` for serial,
#: in-process sweeps).  Module-level so it survives across the many
#: ``compile_item_task`` calls one pool process serves.
_WORKER_TRACER: Optional[Tracer] = None
_WORKER_SHARD: Optional[SpanShardWriter] = None


def pool_worker_init(
    context: Optional[Tuple[str, Optional[str], float]],
    shard_dir: Optional[str],
) -> None:
    """Pool initializer: join the parent's trace and open this worker's
    span shard.  Runs once per pool process, so every spawned worker
    owns a lane (shard header) even before its first item."""
    global _WORKER_TRACER, _WORKER_SHARD
    if context is None or shard_dir is None:
        _WORKER_TRACER = None
        _WORKER_SHARD = None
        return
    tracer = Tracer(
        context=TraceContext.from_tuple(context),
        worker=f"worker-{os.getpid()}",
    )
    shard = SpanShardWriter(
        pathlib.Path(shard_dir) / f"spans-{os.getpid()}.jsonl", tracer
    )
    tracer.writer = shard.write
    _WORKER_TRACER = tracer
    _WORKER_SHARD = shard


def compile_item_task(
    task: Tuple[int, SweepItem, Optional[str], bool]
) -> Dict[str, Any]:
    """Worker: compile (or rehydrate) one item.  Never raises for
    per-item failures — those become structured error dicts — so one
    bad loop cannot kill the batch.

    This is the module-level (hence picklable) unit of work shared by
    the sweep pool, the serial in-process path, and ``repro serve``'s
    long-lived compilation pool; ``task`` is ``(manifest index,
    SweepItem, cache directory or None, lookup)``.  ``lookup`` says
    whether to read the whole-payload entry before compiling: the sweep
    and ``repro compile`` pass True; ``repro serve`` passes False for a
    single compile, having read that entry in-process already, so a
    served miss reads it once.  A compile stores its payload either way.
    """
    index, item, cache_dir, lookup = task
    tracer = _WORKER_TRACER if _WORKER_TRACER is not None else NULL_TRACER
    registry = MetricsRegistry()  # process-local; merged by the parent
    cache = (
        CompileCache(cache_dir, registry=registry)
        if cache_dir is not None
        else None
    )
    key = item.cache_key()
    payload: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    cache_hit = False
    stage_outcomes: Optional[Dict[str, str]] = None
    started = perf_counter()
    with tracer.span(f"item:{item.name}", item=item.name, index=index):
        if cache is not None and lookup:
            with tracer.span("cache.lookup"):
                payload = cache.load(key)
            cache_hit = payload is not None
        if payload is None:
            # A whole-payload miss compiles against the same store, so
            # any upstream work a previous (even differently
            # parameterised) compile already did is reused.
            store = cache.artifacts if cache is not None else None
            try:
                with tracer.span("compile"):
                    request = compiler.make_request(
                        item.source,
                        scalars=item.scalars,
                        pipeline_stages=item.pipeline_stages,
                        include_io=item.include_io,
                        engine=item.engine,
                        unroll=item.unroll,
                    )
                    payload, outcomes = compiler.compile_staged(
                        request, store, registry=registry, tracer=tracer
                    )
            except Exception as exc:  # noqa: BLE001 — isolate *any* failure
                error = {"type": type(exc).__name__, "message": str(exc)}
                stage = compiler.failing_stage(exc)
                if stage is not None:
                    error["stage"] = stage
            else:
                if cache is not None:
                    stage_outcomes = outcomes
                    with tracer.span("cache.store"):
                        cache.store(key, payload)
    wall = perf_counter() - started
    return {
        "index": index,
        "name": item.name,
        "status": "error" if error is not None else "ok",
        "payload": payload,
        "error": error,
        "cache_hit": cache_hit,
        "cache_lookup": cache is not None and lookup,
        "key": key,
        "wall": wall,
        "worker": tracer.worker if tracer.enabled else f"worker-{os.getpid()}",
        "timings": {
            name: timer["total"]
            for name, timer in registry.dump()["timers"].items()
        },
        "store_counts": cache.artifacts.counts if cache is not None else None,
        "stage_outcomes": stage_outcomes,
    }


def _as_item(entry: Union[SweepItem, Mapping[str, Any]], index: int) -> SweepItem:
    if isinstance(entry, SweepItem):
        return entry
    return SweepItem.from_mapping(entry, index=index)


def item_result_from_entry(entry: Mapping[str, Any]) -> SweepItemResult:
    """Rehydrate the plain-dict return of :func:`compile_item_task`
    (it crosses the process boundary as a dict) into a
    :class:`SweepItemResult`."""
    return SweepItemResult(
        index=entry["index"],
        name=entry["name"],
        status=entry["status"],
        payload=entry["payload"],
        error=entry["error"],
        cache_hit=entry["cache_hit"],
        cache_lookup=entry["cache_lookup"],
        key=entry["key"],
        wall=entry["wall"],
        worker=entry["worker"],
        timings=entry["timings"],
        store_counts=entry["store_counts"],
        stage_outcomes=entry["stage_outcomes"],
    )


def compile_one(
    item: Union[SweepItem, Mapping[str, Any]],
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
) -> SweepItemResult:
    """Compile a single item in-process, optionally through the cache.

    The one-item convenience over :func:`compile_item_task` used by
    ``repro compile`` and by tests that want the exact payload the
    service and the sweep driver would produce for the same input.
    While the process-wide registry is enabled, the item's store
    counters and timer rows are folded into it, as
    :func:`compile_many` folds every item's.
    """
    task = (
        0,
        _as_item(item, 0),
        str(cache_dir) if cache_dir is not None else None,
        True,
    )
    result = item_result_from_entry(compile_item_task(task))
    registry = default_registry()
    if registry.enabled:
        record_counts(registry, result.store_counts or {})
        record_timings(registry, result.timings)
    return result


def record_timings(
    registry: MetricsRegistry, timings: Optional[Mapping[str, float]]
) -> None:
    """Replay one compile's timer rows (:attr:`SweepItemResult.timings`,
    measured in whichever process ran it) into ``registry``."""
    for name, seconds in (timings or {}).items():
        registry.record_time(name, seconds)


def compile_many(
    items: Sequence[Union[SweepItem, Mapping[str, Any]]],
    workers: int = 1,
    cache: Optional[CompileCache] = None,
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[SweepProgress] = None,
    tracer: Optional[Tracer] = None,
    shard_dir: Optional[Union[str, pathlib.Path]] = None,
) -> SweepResult:
    """Compile every manifest item, optionally in parallel and through
    the compile cache.

    Parameters
    ----------
    items:
        :class:`SweepItem` s or plain mappings (validated on entry).
    workers:
        ``1`` (default) compiles serially in-process; ``N > 1`` fans
        out over a ``ProcessPoolExecutor`` with ``N`` processes.
        Results are merged in manifest order either way.
    cache / cache_dir:
        An existing :class:`CompileCache`, or a directory to open one
        in.  Omit both to compile everything from scratch.
    registry:
        Metrics registry for every item's ``stage.cache.*`` store
        counters, the ``batch.sweep.*`` counters, the ``sweep.item``
        timer and every
        item's compile timer rows (``stage.<name>``,
        ``compile.unattributed``, ``compile.total``; default: the
        process-wide one).
    progress:
        A :class:`~repro.batch.progress.SweepProgress` reporter.  Its
        ``dispatch``/``finish``/``close`` protocol is driven as items
        are handed out and *complete* (completion order, not manifest
        order), so the display is live even though results merge
        deterministically.
    tracer / shard_dir:
        A truthy :class:`~repro.obs.spans.Tracer` turns span tracing
        on.  Serial sweeps trace in-process into the tracer itself;
        parallel sweeps additionally need ``shard_dir``, a directory
        where every pool worker writes its ``spans-<pid>.jsonl`` shard
        (listed afterwards in :attr:`SweepResult.span_shards`).
    """
    global _WORKER_TRACER
    if workers < 1:
        raise ReproError(f"sweep needs >= 1 worker, got {workers}")
    if cache is not None and cache_dir is not None:
        raise ReproError("pass either `cache` or `cache_dir`, not both")
    directory = (
        str(cache.directory)
        if cache is not None
        else (str(cache_dir) if cache_dir is not None else None)
    )
    tracing = tracer is not None and bool(tracer)
    if tracing and workers > 1 and shard_dir is None:
        raise ReproError("a traced parallel sweep needs a shard_dir")
    sweep_items = [_as_item(entry, index) for index, entry in enumerate(items)]
    tasks = [
        (index, item, directory, True)
        for index, item in enumerate(sweep_items)
    ]

    raw: List[Dict[str, Any]] = []
    shards: List[str] = []
    if workers == 1 or len(tasks) <= 1:
        previous = _WORKER_TRACER
        _WORKER_TRACER = tracer if tracing else None
        try:
            for task in tasks:
                if progress is not None:
                    progress.dispatch(task[1].name)
                entry = compile_item_task(task)
                raw.append(entry)
                if progress is not None:
                    progress.finish(
                        entry["name"],
                        cache_hit=entry["cache_hit"],
                        cache_lookup=entry["cache_lookup"],
                        error=entry["status"] == "error",
                    )
        finally:
            _WORKER_TRACER = previous
    else:
        # imported here, not at module top: the pool pulls in
        # multiprocessing, socket and pickle, which a serial sweep or a
        # CLI compile (through compile_one) never needs
        from concurrent.futures import ProcessPoolExecutor, as_completed

        initargs: Tuple[Any, ...] = (None, None)
        if tracing:
            initargs = (
                tracer.make_context().to_tuple(),
                str(shard_dir),
            )
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=pool_worker_init,
            initargs=initargs,
        ) as pool:
            futures = {}
            for task in tasks:
                futures[pool.submit(compile_item_task, task)] = task[1].name
                if progress is not None:
                    progress.dispatch(task[1].name)
            for future in as_completed(futures):
                entry = future.result()
                raw.append(entry)
                if progress is not None:
                    progress.finish(
                        entry["name"],
                        cache_hit=entry["cache_hit"],
                        cache_lookup=entry["cache_lookup"],
                        error=entry["status"] == "error",
                    )
        if tracing:
            shards = [str(path) for path in shard_paths(shard_dir)]
    if progress is not None:
        progress.close()

    raw.sort(key=lambda result: result["index"])  # manifest order, always
    results = [item_result_from_entry(entry) for entry in raw]
    result = SweepResult(
        items=results,
        workers=workers,
        cache_dir=directory,
        span_shards=shards,
    )

    target_registry = registry if registry is not None else default_registry()
    target_registry.counter("batch.sweep.items").inc(result.n_items)
    target_registry.counter("batch.sweep.errors").inc(result.n_errors)
    for item in results:
        record_counts(target_registry, item.store_counts or {})
        target_registry.record_time("sweep.item", item.wall)
        record_timings(target_registry, item.timings)
    return result
