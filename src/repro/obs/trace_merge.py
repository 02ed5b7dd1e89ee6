"""Merge per-worker span shards into one Chrome/Perfetto trace.

A traced sweep produces one span tree in the parent (the ``sweep`` root
span, dispatch, merge) plus one JSONL shard per pool worker
(:class:`~repro.obs.spans.SpanShardWriter`).  :func:`merge_traces`
stitches them into a single Chrome trace-event document with **one lane
per worker**: the parent is ``pid`` 0, each worker shard gets the next
``pid`` in deterministic (worker-id-sorted) order, and every lane is
named through ``process_name`` metadata, so ui.perfetto.dev shows the
sweep as a swimlane diagram — items stacked inside workers, compiler
stages nested inside items.

Determinism: lanes are ordered by worker id and events are sorted by
``(ts, pid, -dur, name, span_id)``, so merging the same shards in any
order yields byte-identical output (pinned by the test suite).

Clock-skew normalization: each shard header carries the ``handshake``
wall time its worker received from the parent and the worker's own
``wall_anchor``.  A worker clock reading *earlier* than the handshake
is causally impossible (the handshake was stamped before the worker
existed), so such a shard's spans are shifted forward by the
difference.  Skew in the other direction is indistinguishable from
genuine dispatch latency and is left alone.

Timestamps in the merged trace are integer microseconds from the
earliest span (``1 trace us == 1 wall-clock microsecond`` — unlike the
simulator traces of :mod:`repro.obs.trace`, these are real durations).

Truncated inputs are tolerated end to end: shards may have a torn final
line (:func:`~repro.obs.spans.read_shard`) and previously merged traces
may be cut off mid-array (:func:`~repro.obs.trace.load_trace_events`),
matching Chrome's own loader.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .spans import Span, Tracer, read_shard, shard_paths

__all__ = ["merge_traces", "write_trace", "load_merged_spans"]

_PathLike = Union[str, pathlib.Path]

#: pid of the parent (dispatching) process's lane.
PARENT_PID = 0


def _normalized_lanes(
    shards: Iterable[_PathLike],
    parent: Optional[Tracer],
    parent_label: str,
) -> List[Tuple[str, List[Span], float]]:
    """Resolve ``(label, spans, shift)`` per lane, parent lane first,
    worker lanes in deterministic label order."""
    lanes: List[Tuple[str, List[Span], float]] = []
    if parent is not None:
        lanes.append((parent_label, list(parent.spans), 0.0))
    workers: List[Tuple[str, List[Span], float]] = []
    for path in shards:
        header, spans = read_shard(path)
        label = str(header.get("shard") or pathlib.Path(path).stem)
        handshake = header.get("handshake")
        anchor = header.get("wall_anchor")
        shift = 0.0
        if isinstance(handshake, (int, float)) and isinstance(
            anchor, (int, float)
        ):
            # the worker cannot have started before the handshake was
            # stamped; a clock reading earlier than that is skew
            shift = max(0.0, float(handshake) - float(anchor))
        workers.append((label, spans, shift))
    workers.sort(key=lambda lane: lane[0])
    return lanes + workers


def merge_traces(
    shards: Union[_PathLike, Sequence[_PathLike]],
    parent: Optional[Tracer] = None,
    parent_label: str = "parent",
    time_origin: Optional[float] = None,
) -> Dict[str, Any]:
    """Merge span shards (paths, or a shard directory) plus the parent
    tracer's spans into one Chrome trace-event document.

    Returns the document as a dict; use :func:`write_trace` to persist
    it.  ``time_origin`` overrides the inferred t0 (the earliest
    normalized span start) — mainly for tests that want fixed numbers.
    """
    if isinstance(shards, (str, pathlib.Path)):
        shard_list: Sequence[_PathLike] = shard_paths(shards)
    else:
        shard_list = list(shards)
    lanes = _normalized_lanes(shard_list, parent, parent_label)

    starts = [
        span.start + shift for _, spans, shift in lanes for span in spans
    ]
    t0 = (
        time_origin
        if time_origin is not None
        else (min(starts) if starts else 0.0)
    )

    events: List[Dict[str, Any]] = []
    lane_names: Dict[int, str] = {}
    slices: List[Dict[str, Any]] = []
    for pid, (label, spans, shift) in enumerate(lanes, start=PARENT_PID):
        lane_names[pid] = label
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "spans"},
            }
        )
        for span in spans:
            args: Dict[str, Any] = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
            }
            if span.attributes:
                args.update(span.attributes)
            slices.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": int(round((span.start + shift - t0) * 1e6)),
                    "dur": max(0, int(round(span.duration * 1e6))),
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
    # Deterministic order: a slice starting when another ends sorts
    # after it only via the (ts, pid) key; longer slices first at equal
    # ts so parents precede their children.
    slices.sort(
        key=lambda e: (
            e["ts"],
            e["pid"],
            -e["dur"],
            e["name"],
            e["args"]["span_id"],
        )
    )
    events.extend(slices)

    trace_id = None
    if parent is not None:
        trace_id = parent.trace_id
    elif lanes:
        for _, spans, _ in lanes:
            if spans:
                trace_id = spans[0].trace_id
                break
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": trace_id,
            "time_unit": "1 trace us == 1 wall-clock microsecond",
            "time_origin_unix": t0,
            "lanes": {str(pid): name for pid, name in lane_names.items()},
        },
    }


def write_trace(document: Dict[str, Any], path: _PathLike) -> pathlib.Path:
    """Write a merged trace document deterministically (sorted keys,
    fixed indent) so identical merges are byte-identical files."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def load_merged_spans(path: _PathLike) -> List[Dict[str, Any]]:
    """The span slices of a merged trace file (tolerant of truncation),
    for tooling that post-processes merged traces."""
    from .trace import load_trace_events

    events, _ = load_trace_events(path)
    return [
        event
        for event in events
        if event.get("ph") == "X" and event.get("cat") == "span"
    ]
