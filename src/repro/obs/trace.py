"""Trace sinks: JSONL and Chrome/Perfetto trace-event output.

A simulation traced through :class:`ChromeTraceSink` renders, in
``chrome://tracing`` or https://ui.perfetto.dev, as one track per
transition with one slice per firing whose length is the firing's
execution time — effectively the paper's behavior graph (Figure 1(e))
drawn by a trace viewer for free.

Conventions
-----------

* Logical simulator cycles map 1:1 to trace microseconds (``ts``/
  ``dur`` are numerically equal to cycle counts), so slice durations
  read directly as execution times.
* Every transition gets its own ``tid`` (named via ``thread_name``
  metadata), all under ``pid`` 0 ("simulation").
* :class:`~repro.obs.events.FrustumDetected` becomes a global instant
  event plus explicit ``frustum`` begin/end marks on a dedicated
  track, so the cyclic frustum's span is visible in the timeline.

:class:`JsonlTraceSink` is the lossless form: every event, one JSON
object per line, in emission order — the machine-readable behavior
graph used by the golden-trace tests and any downstream tooling.

Crash tolerance
---------------

:class:`ChromeTraceSink` streams events to its target as they arrive
(header first, one flushed JSON object per event) and registers itself
with :mod:`atexit`, so a process that exits without calling
:meth:`~ChromeTraceSink.close` still finalizes its document, and a
process killed outright still leaves every flushed event on disk.  The
resulting truncated file is missing the closing ``]`` — exactly the
shape Chrome's own loader accepts — and :func:`load_trace_events`
recovers every complete event from it.
"""

from __future__ import annotations

import atexit
import io
import json
import pathlib
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from .events import (
    Event,
    EventSink,
    FiringCompleted,
    FiringStarted,
    FrustumDetected,
    StateSnapshot,
)

__all__ = ["JsonlTraceSink", "ChromeTraceSink", "load_trace_events"]

PathOrFile = Union[str, "io.TextIOBase", IO[str]]


def _open(target: PathOrFile) -> tuple:
    """Return ``(handle, owns_handle)`` for a path or file-like."""
    if isinstance(target, str):
        return open(target, "w"), True
    return target, False


class JsonlTraceSink(EventSink):
    """One JSON object per event per line, written as events arrive.

    ``target`` may be a path or an open text handle (handles are left
    open on :meth:`close` so callers can wrap ``StringIO``).
    """

    def __init__(self, target: PathOrFile) -> None:
        self._handle, self._owns = _open(target)
        self.events_written = 0

    def emit(self, event: Event) -> None:
        json.dump(event.to_dict(), self._handle, sort_keys=True)
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        self._handle.flush()
        if self._owns:
            self._handle.close()


class ChromeTraceSink(EventSink):
    """Chrome trace-event (JSON object format) sink.

    Events are *streamed*: the ``{"traceEvents": [`` header is written
    up front and every event is serialized and flushed as it arrives,
    so a crashed or killed process leaves a file holding every event it
    reached — truncated before the closing ``]``, which Chrome (and
    :func:`load_trace_events`) accepts.  :meth:`close` finalizes the
    document with ``displayTimeUnit`` and ``otherData``; the sink also
    registers with :mod:`atexit` so a normal interpreter exit finalizes
    any sink the caller forgot.

    Complete (``ph: "X"``) slices are emitted at :class:`FiringStarted`
    time — the duration is already known then, Assumption A.6.1
    guarantees slices on one track never overlap, and completions need
    no separate slice.
    """

    #: pid used for all simulation tracks.
    PID = 0
    #: tid reserved for frustum span marks; transitions start above it.
    FRUSTUM_TID = 0

    def __init__(self, target: PathOrFile, *, process_name: str = "simulation") -> None:
        self._handle, self._owns = _open(target)
        self._events_written = 0
        self._tids: Dict[str, int] = {}
        self._closed = False
        self._handle.write('{\n"traceEvents": [\n')
        self._meta(
            "process_name", tid=self.FRUSTUM_TID, args={"name": process_name}
        )
        self._meta(
            "thread_name", tid=self.FRUSTUM_TID, args={"name": "(frustum)"}
        )
        self._handle.flush()
        atexit.register(self.close)

    # -- helpers --------------------------------------------------------
    def _write(self, event: Dict[str, Any]) -> None:
        prefix = ",\n" if self._events_written else ""
        self._handle.write(prefix + json.dumps(event, sort_keys=True))
        self._handle.flush()
        self._events_written += 1

    def _meta(self, name: str, tid: int, args: Dict[str, Any]) -> None:
        self._write(
            {"name": name, "ph": "M", "pid": self.PID, "tid": tid, "args": args}
        )

    def _tid_of(self, transition: str) -> int:
        tid = self._tids.get(transition)
        if tid is None:
            tid = self._tids[transition] = len(self._tids) + 1
            self._meta("thread_name", tid=tid, args={"name": transition})
        return tid

    # -- EventSink ------------------------------------------------------
    def emit(self, event: Event) -> None:
        if isinstance(event, FiringStarted):
            self._write(
                {
                    "name": event.transition,
                    "cat": "firing",
                    "ph": "X",
                    "ts": event.time,
                    "dur": event.duration,
                    "pid": self.PID,
                    "tid": self._tid_of(event.transition),
                }
            )
        elif isinstance(event, FrustumDetected):
            self._write(
                {
                    "name": f"cyclic frustum (period {event.period})",
                    "cat": "frustum",
                    "ph": "X",
                    "ts": event.start_time,
                    "dur": event.period,
                    "pid": self.PID,
                    "tid": self.FRUSTUM_TID,
                    "args": {
                        "start_time": event.start_time,
                        "repeat_time": event.repeat_time,
                        "period": event.period,
                    },
                }
            )
            self._write(
                {
                    "name": "state repeats",
                    "cat": "frustum",
                    "ph": "i",
                    "s": "g",
                    "ts": event.repeat_time,
                    "pid": self.PID,
                    "tid": self.FRUSTUM_TID,
                }
            )
        elif isinstance(event, StateSnapshot):
            # Token totals as a counter track: the timeline shows the
            # marking "breathe" as the pipeline fills and settles.
            self._write(
                {
                    "name": "tokens",
                    "cat": "state",
                    "ph": "C",
                    "ts": event.time,
                    "pid": self.PID,
                    "args": {"total": sum(c for _, c in event.marking)},
                }
            )
        elif isinstance(event, FiringCompleted):
            pass  # the slice was emitted complete at FiringStarted
        # unknown event types are ignored: sinks must stay forward-compatible

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        other = json.dumps({"time_unit": "1 trace us == 1 simulator cycle"})
        self._handle.write(
            '\n],\n"displayTimeUnit": "ms",\n"otherData": ' + other + "\n}\n"
        )
        self._handle.flush()
        if self._owns:
            self._handle.close()


def load_trace_events(
    source: Union[str, pathlib.Path],
) -> Tuple[List[Dict[str, Any]], bool]:
    """Load the event list of a Chrome trace file, tolerating truncation.

    Returns ``(events, truncated)``.  A complete document (object with
    ``traceEvents``, or a bare event array) parses normally; a file cut
    off mid-stream — the signature of a killed writer — is recovered by
    decoding complete event objects until the torn tail, mirroring the
    leniency of Chrome's own trace importer.
    """
    text = pathlib.Path(source).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return _recover_events(text), True
    if isinstance(document, list):
        return [e for e in document if isinstance(e, dict)], False
    if isinstance(document, dict):
        events = document.get("traceEvents", [])
        return [e for e in events if isinstance(e, dict)], False
    return [], False


def _recover_events(text: str) -> List[Dict[str, Any]]:
    """Best-effort event extraction from a truncated trace document."""
    marker = text.find('"traceEvents"')
    start = text.find("[", marker if marker >= 0 else 0)
    if start < 0:
        return []
    decoder = json.JSONDecoder()
    events: List[Dict[str, Any]] = []
    index = start + 1
    length = len(text)
    while index < length:
        while index < length and text[index] in " \t\r\n,":
            index += 1
        if index >= length or text[index] == "]":
            break
        try:
            event, index = decoder.raw_decode(text, index)
        except json.JSONDecodeError:
            break  # torn tail: everything before it was recovered
        if isinstance(event, dict):
            events.append(event)
    return events
