"""Cross-process span tracing for the batch subsystem.

PR 2 gave single simulations a timeline (:mod:`repro.obs.trace`); this
module gives *sweeps* one.  A :class:`Span` is one timed region of work
— an item compile, a cache lookup, a compiler stage — carrying the
usual distributed-tracing identity triple (``trace_id`` shared by the
whole sweep, its own ``span_id``, and the ``parent_id`` that nests it).
Spans form per-process trees; :mod:`repro.obs.trace_merge` stitches the
trees from every sweep worker into one Chrome/Perfetto trace with one
lane per worker.

Clock model
-----------

Wall clocks are shared across processes on one host but coarse;
``perf_counter`` is precise but has a per-process arbitrary epoch.  A
:class:`Tracer` therefore anchors itself once at construction —
``wall_anchor = time.time()`` paired with ``perf_anchor =
perf_counter()`` — and stamps every span with ``wall_anchor +
(perf_counter() - perf_anchor)``: a wall-aligned timestamp with
``perf_counter`` precision.  The :class:`TraceContext` handed to a
worker carries the parent's ``handshake`` wall time from just before
dispatch; a worker whose clock reads *earlier* than the handshake it
received is causally impossible, so the merger shifts that worker's
spans forward by the difference (clock-skew normalization).

Zero-overhead contract
----------------------

Like :data:`repro.obs.NULL_INSTRUMENTATION` and the disabled default
metrics registry, :data:`NULL_TRACER` is falsy and its :meth:`~Tracer.
span` returns a shared reusable no-op context manager — untraced sweeps
pay one attribute check per would-be span and allocate nothing.

Durability
----------

Workers stream finished spans through :class:`SpanShardWriter` — one
append-only JSONL file per worker process, header line first (clock
anchors, worker identity), one span per line, flushed as each span
ends.  A worker killed mid-sweep loses at most the span in flight;
:func:`read_shard` tolerates the torn final line.
"""

from __future__ import annotations

import os
import json
import pathlib
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanShardWriter",
    "read_shard",
    "shard_paths",
    "new_id",
]

_PathLike = Union[str, pathlib.Path]

#: File-name prefix of span shards inside a shard directory.
SHARD_PREFIX = "spans-"


def new_id() -> str:
    """A fresh 64-bit hex identifier (trace or span)."""
    return os.urandom(8).hex()


@dataclass
class Span:
    """One timed region of work inside a trace.

    ``start`` is on the emitting tracer's wall-aligned clock (seconds,
    see the module docstring); ``duration`` is in seconds.  ``worker``
    labels the lane (process) the span ran in.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start: float
    duration: float = 0.0
    worker: str = "main"
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "worker": self.worker,
            "status": self.status,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            start=float(data["start"]),
            duration=float(data.get("duration", 0.0)),
            worker=str(data.get("worker", "main")),
            status=str(data.get("status", "ok")),
            attributes=dict(data.get("attributes") or {}),
        )


@dataclass(frozen=True)
class TraceContext:
    """The propagated trace identity: which trace a child joins, which
    span its roots hang under, and the parent's wall clock at dispatch
    time (the skew-normalization handshake)."""

    trace_id: str
    parent_id: Optional[str]
    handshake: float

    def to_tuple(self) -> Tuple[str, Optional[str], float]:
        """Plain-data form for pickling into pool initializers."""
        return (self.trace_id, self.parent_id, self.handshake)

    @classmethod
    def from_tuple(
        cls, data: Tuple[str, Optional[str], float]
    ) -> "TraceContext":
        return cls(trace_id=data[0], parent_id=data[1], handshake=data[2])


class _ActiveSpan:
    """Context manager for one open span (kept tiny: two attributes)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span.span_id)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        tracer._stack.pop()
        self.span.duration = tracer.now() - self.span.start
        if exc_type is not None:
            self.span.status = "error"
        tracer._finish(self.span)
        return None


class Tracer:
    """Produces spans on one process's wall-aligned clock.

    A root tracer (``context=None``) mints a fresh ``trace_id``; a
    child tracer joins the trace described by its :class:`TraceContext`
    and parents its top-level spans under ``context.parent_id``.
    Finished spans accumulate in :attr:`spans` and are forwarded to
    ``writer`` (a callable, e.g. :meth:`SpanShardWriter.write`) when
    one is attached.
    """

    enabled = True

    def __init__(
        self,
        context: Optional[TraceContext] = None,
        worker: str = "main",
        writer: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self.worker = worker
        self.writer = writer
        self.wall_anchor = time.time()
        self.perf_anchor = perf_counter()
        if context is None:
            self.trace_id = new_id()
            self.root_parent: Optional[str] = None
            self.handshake = self.wall_anchor
        else:
            self.trace_id = context.trace_id
            self.root_parent = context.parent_id
            self.handshake = context.handshake
        self.spans: List[Span] = []
        self._stack: List[str] = []

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """Wall-aligned, ``perf_counter``-precise current time."""
        return self.wall_anchor + (perf_counter() - self.perf_anchor)

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _ActiveSpan:
        """Open a span as a context manager::

            with tracer.span("item:chain-8", index=3) as sp:
                ...                       # sp.attributes may be updated

        The span closes (duration stamped, status ``"error"`` if the
        body raised) on exit and is recorded/streamed then.
        """
        parent = self._stack[-1] if self._stack else self.root_parent
        return _ActiveSpan(
            self,
            Span(
                name=name,
                trace_id=self.trace_id,
                span_id=new_id(),
                parent_id=parent,
                start=self.now(),
                worker=self.worker,
                attributes=attributes,
            ),
        )

    def record_completed(
        self, name: str, duration: float, **attributes: Any
    ) -> Span:
        """Record a span that already happened (e.g. a served request,
        whose duration is only known once it ends): it ends *now* and
        started ``duration`` seconds ago, parented under the currently
        open span."""
        now = self.now()
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_id=self._stack[-1] if self._stack else self.root_parent,
            start=now - duration,
            duration=duration,
            worker=self.worker,
            attributes=attributes,
        )
        self._finish(span)
        return span

    def _finish(self, span: Span) -> None:
        self.spans.append(span)
        if self.writer is not None:
            self.writer(span)

    def make_context(self, parent: Optional[Span] = None) -> TraceContext:
        """The context to hand a child process: current trace, current
        (or given) span as parent, and a fresh handshake timestamp."""
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
        else:
            parent_id = self._stack[-1] if self._stack else self.root_parent
        return TraceContext(
            trace_id=self.trace_id, parent_id=parent_id, handshake=time.time()
        )


class _NullSpanContext:
    """Shared reusable no-op ``with`` target (never records anything)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """The falsy do-nothing tracer: ``span()`` hands back one shared
    no-op context (yielding ``None`` — callers that mutate the yielded
    span must guard with ``if tracer:``), so untraced code pays a
    single attribute check per would-be span."""

    enabled = False

    def __bool__(self) -> bool:
        return False

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_SPAN_CONTEXT

    def record_completed(self, name, duration, **attributes):  # type: ignore[override]
        return None


#: Shared no-op used wherever span tracing was not requested.
NULL_TRACER = NullTracer()


class SpanShardWriter:
    """Append-only JSONL span shard for one worker process.

    The first line is a header carrying the worker's identity and clock
    anchors (everything :mod:`repro.obs.trace_merge` needs to place the
    shard's spans on the parent's timeline); each subsequent line is one
    finished span.  Every line is flushed as written, so a worker killed
    mid-sweep leaves a shard that is valid up to (at worst) a torn final
    line — which :func:`read_shard` tolerates.
    """

    def __init__(self, path: _PathLike, tracer: Tracer) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a")
        if self._handle.tell() == 0:
            header = {
                "shard": tracer.worker,
                "trace_id": tracer.trace_id,
                "pid": os.getpid(),
                "handshake": tracer.handshake,
                "wall_anchor": tracer.wall_anchor,
            }
            self._handle.write(json.dumps(header, sort_keys=True) + "\n")
            self._handle.flush()

    def write(self, span: Span) -> None:
        self._handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        try:
            self._handle.close()
        except ValueError:  # pragma: no cover - already closed
            pass


def shard_paths(directory: _PathLike) -> List[pathlib.Path]:
    """Every span shard under ``directory``, in deterministic order."""
    base = pathlib.Path(directory)
    if not base.is_dir():
        return []
    return sorted(base.glob(f"{SHARD_PREFIX}*.jsonl"))


def read_shard(
    path: _PathLike,
) -> Tuple[Dict[str, Any], List[Span]]:
    """Load one span shard: ``(header, spans)``.

    Tolerates a torn final line (the worker was killed mid-write) by
    dropping it; a shard whose *header* is unreadable yields an empty
    default header so one bad shard cannot sink a merge.
    """
    target = pathlib.Path(path)
    header: Dict[str, Any] = {}
    spans: List[Span] = []
    lines = target.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            # Only the final line may legitimately be torn; anything
            # else is still skipped (merge must survive a bad shard)
            # but only the tail is the expected crash signature.
            continue
        if index == 0 and "name" not in data:
            header = data
        else:
            try:
                spans.append(Span.from_dict(data))
            except (KeyError, TypeError, ValueError):
                continue
    if not header:
        header = {"shard": target.stem, "handshake": None, "wall_anchor": None}
    return header, spans
