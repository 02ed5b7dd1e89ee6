"""Spans recorded by the benchmark around the program's public calls.

Spans carry the repository's identity fields (``trace_id``,
``span_id``, ``parent_id``, ``status``, ``worker``, wall-aligned
``start`` and ``duration`` in seconds; see ``repro.obs.spans``).  They
are kept in memory and written once, at the end of a traced run, as a
Chrome trace-event document that ``tools/trace_lint.py --strict``
accepts and Perfetto opens.

A :class:`Recorder` also keeps running totals per span name, which the
workloads read and reset once per pass; the per-layer metrics come from
those totals, the trace file from the span list.
"""

from __future__ import annotations

import json
import operator
import os
import pathlib
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union


def new_id() -> str:
    return os.urandom(8).hex()


class _Active:
    __slots__ = ("recorder", "name", "attributes", "span_id", "parent_id", "start")

    def __init__(self, recorder: "Recorder", name: str, attributes: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.name = name
        self.attributes = attributes

    def __enter__(self) -> "_Active":
        stack = self.recorder._stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = new_id()
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        recorder = self.recorder
        recorder._stack().pop()
        duration = end - self.start
        recorder.spans.append(
            {
                "name": self.name,
                "trace_id": recorder.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": recorder.wall_anchor + (self.start - recorder.perf_anchor),
                "duration": duration,
                "worker": recorder.worker,
                "status": "ok" if exc_type is None else "error",
                "attributes": self.attributes,
            }
        )
        recorder.totals[self.name] = recorder.totals.get(self.name, 0.0) + duration


class Recorder:
    """In-memory span recorder for one process (thread-safe: each
    thread nests its own spans)."""

    def __init__(self, worker: str, trace_id: Optional[str] = None) -> None:
        self.worker = worker
        self.trace_id = trace_id or new_id()
        self.wall_anchor = time.time()
        self.perf_anchor = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self.totals: Dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes: Any) -> _Active:
        return _Active(self, name, attributes)

    def take_totals(self) -> Dict[str, float]:
        """Seconds per span name since the last call."""
        totals, self.totals = self.totals, {}
        return totals


def spanned(recorder: Recorder, span_name: str, function):
    """``function`` wrapped in a span named ``span_name``."""

    def wrapper(*args, **kwargs):
        with recorder.span(span_name):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


class Patches:
    """Temporarily wrap public callables with spans; :meth:`restore`
    puts the originals back.  A missing target is skipped and reported
    by :meth:`wrap` returning False, so a renamed function costs one
    metric, not the run."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, Any, Any, Any]] = []

    def wrap(self, owner: Any, attribute: str, span_name: str) -> bool:
        original = getattr(owner, attribute, None)
        if not callable(original):
            return False
        setattr(owner, attribute, spanned(self.recorder, span_name, original))
        self._undo.append((setattr, owner, attribute, original))
        return True

    def set_item(self, mapping: Any, key: Any, value: Any) -> None:
        self._undo.append((operator.setitem, mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()


#: Modules whose ``stable_json`` binding traced runs time.
STABLE_JSON_BINDERS = (
    "repro.batch.cache",
    "repro.compiler.store",
    "repro.compiler.manager",
    "repro.compiler.artifacts",
    "repro.service.app",
)


def patch_stable_json(patches: Patches) -> None:
    """Time ``stable_json`` wherever an imported batch, compiler or
    service module binds it."""
    for name in STABLE_JSON_BINDERS:
        module = sys.modules.get(name)
        if module is not None:
            patches.wrap(module, "stable_json", "obs.stable_json")


def write_span_lines(path: Union[str, pathlib.Path], spans: Iterable[Mapping[str, Any]]) -> None:
    """Write spans as JSON lines, for another process to merge."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_span_lines(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """Spans from a JSON-lines file (a :meth:`Recorder.dump` or a
    program span shard); header lines and a torn last line are skipped."""
    spans = []
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return spans
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and "span_id" in entry and "duration" in entry:
            spans.append(entry)
    return spans


def chrome_document(lanes: Mapping[str, Iterable[Mapping[str, Any]]], trace_id: str) -> Dict[str, Any]:
    """One Chrome trace-event document: a lane (pid) per process, a
    complete (``X``) slice per span, sorted by ``(ts, pid)`` with parents
    before children, and the lane table and trace id in ``otherData``."""
    lanes = {name: list(spans) for name, spans in lanes.items()}
    starts = [span["start"] for spans in lanes.values() for span in spans]
    origin = min(starts) if starts else 0.0
    events: List[Dict[str, Any]] = []
    slices: List[Dict[str, Any]] = []
    for pid, (name, spans) in enumerate(lanes.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": name}})
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": "spans"}})
        for span in spans:
            args = {
                "span_id": span["span_id"],
                "parent_id": span.get("parent_id"),
                "status": span.get("status", "ok"),
                "trace_id": span.get("trace_id"),
            }
            args.update(span.get("attributes") or {})
            slices.append(
                {
                    "name": span["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": int(round((span["start"] - origin) * 1e6)),
                    "dur": max(0, int(round(span["duration"] * 1e6))),
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
    slices.sort(key=lambda e: (e["ts"], e["pid"], -e["dur"], e["name"], e["args"]["span_id"]))
    events.extend(slices)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": trace_id,
            "time_unit": "1 trace us == 1 wall-clock microsecond",
            "time_origin_unix": origin,
            "lanes": {str(pid): name for pid, name in enumerate(lanes)},
        },
    }


def write_chrome(path: pathlib.Path, lanes: Mapping[str, Iterable[Mapping[str, Any]]], trace_id: str) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_document(lanes, trace_id)) + "\n", encoding="utf-8")
    return path
