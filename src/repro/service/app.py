"""The compilation service behind ``repro serve``.

:class:`CompileService` is the transport-independent core: an asyncio
object that admits requests, runs compilations on a long-lived process
pool, serves whole-payload hits from the content-addressed artifact
store, and answers health and metrics probes.  The HTTP layer
(:mod:`repro.service.http`) is a thin shell over :meth:`CompileService.
handle`; tests drive ``handle`` directly and the contract is identical.

Request lifecycle (documented in ``docs/ARCHITECTURE.md``)::

    admission → cache lookup → pool compile → response
       |            |               |
       429/503    X-Cache: hit    X-Cache: miss (+ cache store
     (envelope)   (no pool work)    in the worker, atomically)

Robustness rules, each pinned by a test:

* **bounded admission** — at most ``max_inflight`` requests execute
  while at most ``max_queue`` wait; anything beyond is rejected
  *immediately* with 429 and a ``Retry-After`` estimated from the
  recent request EWMA, so a saturated service sheds load in O(1)
  instead of building an unbounded backlog;
* **deadlines** — a request's clock starts at admission *entry* (queue
  wait counts); when it expires the response is a 504 and the pool
  future is cancelled — work that never started is reaped from the
  queue, work already running is abandoned (its result is discarded;
  the counters ``service.requests.reaped`` / ``.abandoned`` separate
  the two);
* **failure isolation** — a loop that fails to compile is a structured
  422 envelope (the worker's ``{"type", "message"}`` record under
  ``detail``), never a 500, never a dead worker;
* **graceful drain** — :meth:`begin_drain` stops admission (503 on new
  requests, so load balancers eject the instance) while admitted
  requests run to completion; :meth:`drained` reports when in-flight
  work hits zero.

Observability: a dedicated :class:`~repro.obs.metrics.MetricsRegistry`
(never the process-wide default — a server must not fight the CLI for
counters) backs ``GET /metrics``, including the compile timer rows
(``stage.<name>``, ``compile.unattributed``, ``compile.total``) each
pool worker hands back with its result; every request emits one structured
JSON access-log line carrying the service's ``trace_id`` and, when
span tracing is on (``--span-dir``), a completed request span whose
trace id also stamps every pool worker's span shard — the same
end-to-end identity ``repro sweep --trace`` uses.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..batch.cache import CompileCache
from ..batch.sweep import (
    compile_item_task,
    item_result_from_entry,
    pool_worker_init,
    record_timings,
    SweepResult,
)
from ..compiler.store import record_counts
from ..obs.metrics import MetricsRegistry
from ..obs.schema import stable_json
from ..obs.spans import NULL_TRACER, SpanShardWriter, Tracer, new_id
from .wire import (
    API_VERSION,
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_OPENMETRICS,
    WireError,
    error_body,
    parse_compile_request,
    parse_sweep_request,
    split_target,
)

__all__ = ["ServiceConfig", "Response", "CompileService"]

log = logging.getLogger("repro.service")
access_log = logging.getLogger("repro.service.access")

#: ``Retry-After`` is clamped into this window: never tell a client to
#: hammer immediately, never park it for more than a minute.
RETRY_AFTER_BOUNDS = (1, 60)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` can be tuned with (see
    ``docs/SERVICE.md`` for the capacity model behind the knobs)."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    max_inflight: int = 8
    max_queue: Optional[int] = None  # defaults to max_inflight
    request_timeout: float = 30.0
    drain_grace: float = 10.0
    cache_dir: Optional[str] = None
    span_dir: Optional[str] = None
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        """Validate the knobs up front — a service that boots with a
        nonsensical config should fail at start, not under load."""
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_queue is not None and self.max_queue < 0:
            raise ValueError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.drain_grace < 0:
            raise ValueError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )

    @property
    def queue_bound(self) -> int:
        """The effective admission-queue depth (``max_queue`` or, when
        unset, ``max_inflight`` — one full wave of waiters)."""
        return self.max_queue if self.max_queue is not None else self.max_inflight


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class Response:
    """One HTTP response: status, body bytes, and extra headers."""

    status: int
    body: bytes
    content_type: str = CONTENT_TYPE_JSON
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def reason(self) -> str:
        """The status line's reason phrase."""
        return _REASONS.get(self.status, "Unknown")


def _error_response(error: WireError) -> Response:
    headers: Dict[str, str] = {}
    retry_after = error.extra.get("retry_after_seconds")
    if retry_after is not None:
        headers["Retry-After"] = str(int(retry_after))
    allow = error.extra.get("allow")
    if allow is not None:
        headers["Allow"] = str(allow)
    return Response(
        status=error.status,
        body=error_body(error.status, error.kind, error.message, error.extra),
        headers=headers,
    )


def _warm_worker() -> None:
    """No-op pool task: submitting one per worker at boot forces the
    spawn-context interpreters to start before the first request."""
    return None


class CompileService:
    """The asyncio application object: admission, pool, cache, probes.

    ``executor`` is injectable for tests (anything with ``submit`` and
    ``shutdown``); by default :meth:`start` builds a
    ``ProcessPoolExecutor`` with ``config.workers`` processes that —
    when ``config.span_dir`` is set — join the service's trace and
    stream span shards, exactly like sweep pool workers.
    """

    def __init__(
        self,
        config: ServiceConfig,
        executor: Optional[Any] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self._executor = executor
        self._owns_executor = executor is None
        self._started = time.monotonic()
        self._draining = False
        self._executing = 0
        self._queued = 0
        self._served = 0
        self._slots: Optional[asyncio.Semaphore] = None
        self._ewma: float = 0.0
        self.cache = (
            CompileCache(config.cache_dir, registry=self.registry)
            if config.cache_dir is not None
            else None
        )
        self.tracer: Tracer = NULL_TRACER
        self._shard: Optional[SpanShardWriter] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring up the pool (and the span shard when tracing is on).

        Safe to call once; the asyncio primitives are created here so
        the service binds to the running loop, not the import-time one.
        """
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        if self.config.span_dir is not None:
            import os
            import pathlib

            self.tracer = Tracer(worker="serve")
            self._shard = SpanShardWriter(
                pathlib.Path(self.config.span_dir)
                / f"spans-serve-{os.getpid()}.jsonl",
                self.tracer,
            )
            self.tracer.writer = self._shard.write
        if self._executor is None:
            initargs: Tuple[Any, ...] = (None, None)
            if self.tracer.enabled:
                initargs = (
                    self.tracer.make_context().to_tuple(),
                    str(self.config.span_dir),
                )
            # spawn, not fork: forked workers would inherit the
            # server's listening and per-connection fds, so a closed
            # response socket never reaches EOF on the client while a
            # worker holds the dup (and forking an asyncio process is
            # unsafe anyway).  Workers are pre-warmed with no-op tasks
            # so the first request does not pay interpreter startup.
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=pool_worker_init,
                initargs=initargs,
            )
            for _ in range(self.config.workers):
                self._executor.submit(_warm_worker)
        self.registry.gauge("service.workers").set(self.config.workers)
        log.info(
            "service started: workers=%d max_inflight=%d queue=%d "
            "timeout=%.1fs cache=%s",
            self.config.workers,
            self.config.max_inflight,
            self.config.queue_bound,
            self.config.request_timeout,
            self.config.cache_dir or "off",
        )

    def close(self) -> None:
        """Shut the pool down (cancelling queued work) and close the
        span shard.  Idempotent."""
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._shard is not None:
            self._shard.close()
            self._shard = None

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting; already-admitted requests run to completion."""
        if self._draining:
            return
        self._draining = True
        self.registry.gauge("service.draining").set(1)
        log.info(
            "drain started: %d executing, %d queued",
            self._executing,
            self._queued,
        )

    @property
    def draining(self) -> bool:
        """Whether the service is refusing new work (503 on entry)."""
        return self._draining

    @property
    def inflight(self) -> int:
        """Admitted requests that have not finished (executing+queued)."""
        return self._executing + self._queued

    @property
    def served(self) -> int:
        """Total requests answered (any status) since start."""
        return self._served

    def drain_status(self) -> str:
        """The one-line drain progress for the shared status renderer."""
        return (
            f"drain: {self._executing} executing, {self._queued} queued"
        )

    async def drained(self, grace: float) -> bool:
        """Wait up to ``grace`` seconds for in-flight work to hit zero;
        ``True`` when it did, ``False`` when the grace expired first."""
        deadline = time.monotonic() + grace
        while self.inflight:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.05)
        return True

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def retry_after(self) -> int:
        """The 429's ``Retry-After`` estimate, in whole seconds.

        Backlog ahead of a new arrival divided by pool width, scaled by
        the EWMA of recent request wall time, clamped into
        :data:`RETRY_AFTER_BOUNDS`.  A cold service (no EWMA yet)
        advises the lower bound.
        """
        per_request = self._ewma if self._ewma > 0 else 1.0
        backlog = self._executing + self._queued + 1
        estimate = math.ceil(per_request * backlog / self.config.workers)
        low, high = RETRY_AFTER_BOUNDS
        return max(low, min(high, estimate))

    async def _admit(self, deadline: float) -> None:
        """Take an execution slot or raise the backpressure envelope."""
        if self._draining:
            raise WireError(
                503,
                "service-unavailable",
                "service is draining; retry against another instance",
                extra={"retry_after_seconds": self.retry_after()},
            )
        assert self._slots is not None, "CompileService.start() not called"
        if (
            self._executing >= self.config.max_inflight
            and self._queued >= self.config.queue_bound
        ):
            self.registry.counter("service.rejected").inc()
            raise WireError(
                429,
                "too-many-requests",
                f"admission queue is full ({self._queued} waiting, "
                f"{self._executing} executing); retry later",
                extra={"retry_after_seconds": self.retry_after()},
            )
        self._queued += 1
        self.registry.gauge("service.queued").set(self._queued)
        try:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise asyncio.TimeoutError
            await asyncio.wait_for(self._slots.acquire(), remaining)
        except asyncio.TimeoutError:
            self.registry.counter("service.timeouts").inc()
            raise WireError(
                504,
                "timeout",
                "request deadline expired while waiting for admission",
            ) from None
        finally:
            self._queued -= 1
            self.registry.gauge("service.queued").set(self._queued)
        self._executing += 1
        self.registry.gauge("service.inflight").set(self._executing)

    def _release(self) -> None:
        """Give the execution slot back."""
        assert self._slots is not None
        self._executing -= 1
        self.registry.gauge("service.inflight").set(self._executing)
        self._slots.release()

    # ------------------------------------------------------------------
    # Pool work
    # ------------------------------------------------------------------
    def _submit(self, index: int, item: Any, lookup: bool) -> Future:
        """Queue one compile task on the pool; ``lookup`` is False when
        this process has already read the item's payload entry."""
        assert self._executor is not None, "CompileService.start() not called"
        return self._executor.submit(
            compile_item_task, (index, item, self.config.cache_dir, lookup)
        )

    async def _await_entry(
        self, future: Future, deadline: float
    ) -> Dict[str, Any]:
        """Await one pool future under the request deadline.

        On expiry the future is cancelled: if it had not started yet
        the work is *reaped* from the pool queue; if it was already
        running the result is abandoned (the worker finishes and the
        bytes are dropped) — a process pool cannot preempt a running
        task without killing the worker.
        """
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            self._reap(future)
            raise WireError(504, "timeout", "request deadline expired")
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), remaining
            )
        except asyncio.TimeoutError:
            self._reap(future)
            self.registry.counter("service.timeouts").inc()
            raise WireError(
                504,
                "timeout",
                f"compilation exceeded the "
                f"{self.config.request_timeout:g}s request deadline",
            ) from None

    def _reap(self, *futures: Future) -> None:
        """Cancel pool futures, counting reaped vs abandoned work.

        A future may arrive here already cancelled — ``wait_for``
        propagates its cancellation through ``wrap_future`` — which
        still counts as reaped: the work never ran.
        """
        for future in futures:
            if future.cancelled() or future.cancel():
                self.registry.counter("service.requests.reaped").inc()
            else:
                # running (a pool cannot preempt) or finished after the
                # deadline — either way the result is dropped
                self.registry.counter("service.requests.abandoned").inc()

    def _record_entry(self, entry: Mapping[str, Any]) -> None:
        """Fold a worker's store counts and compile timer rows into the
        service registry."""
        record_counts(self.registry, entry["store_counts"] or {})
        record_timings(self.registry, entry["timings"])

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def handle(
        self,
        method: str,
        target: str,
        headers: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
        client: str = "-",
    ) -> Response:
        """Route one request; never raises — every failure is a
        well-formed error envelope (500 for genuine bugs, logged)."""
        path, _ = split_target(target)
        route = {
            "/healthz": ("GET", self._handle_healthz, "healthz"),
            "/metrics": ("GET", self._handle_metrics, "metrics"),
            "/v1/compile": ("POST", self._handle_compile, "compile"),
            "/v1/sweep": ("POST", self._handle_sweep, "sweep"),
        }.get(path)
        started = time.monotonic()
        request_id = new_id()
        cache_state: List[str] = []
        try:
            if route is None:
                raise WireError(404, "not-found", f"no such endpoint: {path}")
            expected_method, handler, name = route
            if method != expected_method:
                raise WireError(
                    405,
                    "method-not-allowed",
                    f"{path} expects {expected_method}, got {method}",
                    extra={"allow": expected_method},
                )
            response = await handler(body, cache_state)
        except WireError as error:
            name = route[2] if route is not None else "other"
            response = _error_response(error)
        except Exception:  # noqa: BLE001 — the envelope must always render
            name = route[2] if route is not None else "other"
            log.exception("unhandled error serving %s %s", method, path)
            self.registry.counter("service.errors.internal").inc()
            response = _error_response(
                WireError(500, "internal", "internal error; see server log")
            )
        seconds = time.monotonic() - started
        self._observe(name, response.status, seconds)
        response.headers.setdefault("X-Request-Id", request_id)
        if self.tracer.enabled:
            span = self.tracer.record_completed(
                f"request:{method} {path}",
                seconds,
                status=response.status,
                request_id=request_id,
            )
            response.headers.setdefault("X-Trace-Id", span.trace_id)
            self.tracer.spans.clear()  # streamed to the shard already
        self._access_log(
            method, target, response.status, seconds, request_id,
            client, cache_state,
        )
        self._served += 1
        return response

    def _observe(self, name: str, status: int, seconds: float) -> None:
        """Per-request accounting: counters, latency timer, EWMA."""
        self.registry.counter(f"service.requests.{name}").inc()
        self.registry.counter(f"service.responses.{status}").inc()
        self.registry.record_time(f"service.request.{name}", seconds)
        if name in ("compile", "sweep") and status < 500:
            self._ewma = (
                seconds
                if self._ewma == 0.0
                else 0.2 * seconds + 0.8 * self._ewma
            )

    def _access_log(
        self,
        method: str,
        target: str,
        status: int,
        seconds: float,
        request_id: str,
        client: str,
        cache_state: List[str],
    ) -> None:
        """One structured JSON line per request on the access logger."""
        entry: Dict[str, Any] = {
            "client": client,
            "method": method,
            "target": target,
            "status": status,
            "seconds": round(seconds, 6),
            "request_id": request_id,
            "inflight": self._executing,
            "queued": self._queued,
        }
        if cache_state:
            entry["cache"] = cache_state[0]
        if self.tracer.enabled:
            entry["trace_id"] = self.tracer.trace_id
        access_log.info("%s", json.dumps(entry, sort_keys=True))

    async def _handle_healthz(
        self, body: bytes, cache_state: List[str]
    ) -> Response:
        """Liveness/readiness: 200 while serving, 503 while draining
        (so load balancers stop routing to a draining instance)."""
        status = 503 if self._draining else 200
        payload = {
            "status": "draining" if self._draining else "ok",
            "api_version": API_VERSION,
            "inflight": self._executing,
            "queued": self._queued,
            "workers": self.config.workers,
            "cache": "on" if self.cache is not None else "off",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }
        return Response(
            status=status,
            body=(json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(
                "utf-8"
            ),
        )

    async def _handle_metrics(
        self, body: bytes, cache_state: List[str]
    ) -> Response:
        """The OpenMetrics exposition of the service registry."""
        self.registry.gauge("service.queued").set(self._queued)
        self.registry.gauge("service.inflight").set(self._executing)
        from ..compiler import stage_ordered_exposition

        text = stage_ordered_exposition(self.registry)
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type=CONTENT_TYPE_OPENMETRICS,
        )

    async def _handle_compile(
        self, body: bytes, cache_state: List[str]
    ) -> Response:
        """``POST /v1/compile``: one loop in, the CLI-identical
        deterministic payload out."""
        item = parse_compile_request(body)
        deadline = time.monotonic() + self.config.request_timeout
        await self._admit(deadline)
        try:
            payload: Optional[Dict[str, Any]] = None
            key: Optional[str] = None
            if self.cache is not None:
                key = item.cache_key()
                payload = await asyncio.to_thread(self.cache.load, key)
            if payload is not None:
                cache_state.append("hit")
            else:
                # the payload entry was read above: the worker only
                # compiles and stores
                entry = await self._await_entry(
                    self._submit(0, item, lookup=False), deadline
                )
                self._record_entry(entry)
                key = entry["key"]
                if entry["status"] == "error":
                    raise WireError(
                        422,
                        "unprocessable",
                        f"loop {item.name!r} failed to compile",
                        extra={"detail": entry["error"]},
                    )
                payload = entry["payload"]
                cache_state.append(
                    "miss" if self.cache is not None else "off"
                )
        finally:
            self._release()
        headers = {"X-Cache": cache_state[0]}
        if key is not None:
            headers["X-Compile-Key"] = key
        return Response(
            status=200,
            body=(stable_json(payload, indent=2) + "\n").encode("utf-8"),
            headers=headers,
        )

    async def _handle_sweep(
        self, body: bytes, cache_state: List[str]
    ) -> Response:
        """``POST /v1/sweep``: a manifest in, the deterministic merged
        payload out.

        Items are submitted individually to the shared pool, so
        concurrent sweep requests micro-batch — their items interleave
        at item granularity instead of queueing request-by-request
        behind each other.
        """
        items = parse_sweep_request(body)
        deadline = time.monotonic() + self.config.request_timeout
        await self._admit(deadline)
        try:
            futures = [
                self._submit(index, item, lookup=True)
                for index, item in enumerate(items)
            ]
            entries: List[Dict[str, Any]] = []
            try:
                for future in futures:
                    entries.append(await self._await_entry(future, deadline))
            except WireError:
                self._reap(*futures)
                raise
            for entry in entries:
                self._record_entry(entry)
        finally:
            self._release()
        entries.sort(key=lambda entry: entry["index"])  # manifest order
        result = SweepResult(
            items=[item_result_from_entry(entry) for entry in entries],
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
        )
        stats = result.cache_stats()
        stage_stats = result.stage_cache_stats()
        merged = result.merged_payload()
        cache_state.append(
            f"hits={stats['hit']},misses={stats['miss']}"
            if self.cache is not None
            else "off"
        )
        headers = {
            "X-Cache-Hits": str(stats["hit"]),
            "X-Cache-Misses": str(stats["miss"]),
            "X-Stage-Hits": str(stage_stats["hit"]),
            "X-Sweep-Errors": str(result.n_errors),
        }
        return Response(
            status=200,
            body=(stable_json(merged, indent=2) + "\n").encode("utf-8"),
            headers=headers,
        )
