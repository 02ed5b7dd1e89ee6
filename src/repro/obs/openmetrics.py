"""OpenMetrics text exposition for the metrics registry.

Renders any :class:`~repro.obs.metrics.MetricsRegistry` (or a
``dump()`` snapshot of one, including snapshots stored in ledger
records) in the `OpenMetrics text exposition format
<https://prometheus.io/docs/specs/om/open_metrics_spec/>`_ — the
surface every Prometheus-compatible scraper understands.  This is the
"pull" half of the observability story: ``repro sweep --metrics-out``
writes a scrape-ready snapshot, and ``repro metrics`` re-renders the
registry dump embedded in any ledger record.

Mapping
-------

=================  ==========================================================
registry metric    OpenMetrics family
=================  ==========================================================
``Counter``        ``counter`` — one ``<name>_total`` sample
``Gauge``          ``gauge`` — one ``<name>`` sample
``Histogram``      ``summary`` — ``quantile="0.5"/"0.95"`` samples (from
                   :meth:`~repro.obs.metrics.Histogram.percentile`) plus
                   ``_count`` and ``_sum``
timers             summaries with a ``_seconds`` unit suffix and a
                   ``# UNIT`` line (timer samples are seconds)
labeled counters   ``counter`` — one ``<name>_total`` sample per label set
                   (dump key ``labeled_counters``; values escaped per spec)
=================  ==========================================================

Label values are escaped per the exposition spec (``\\`` → ``\\\\``,
``"`` → ``\\"``, newline → ``\\n``) by :func:`escape_label_value`;
:func:`parse_labels` is the exact inverse.

Metric names are sanitized to ``[a-zA-Z_:][a-zA-Z0-9_:]*`` (dots and
other separators become underscores; collisions get numeric suffixes),
every family gets ``# TYPE`` and ``# HELP`` lines carrying the original
dotted name, and the exposition ends with the mandatory ``# EOF``.
:func:`parse_exposition` is the matching minimal validator used by the
test suite and ``tools/trace_lint.py``-style checks.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Tuple, Union

__all__ = [
    "sanitize_metric_name",
    "escape_label_value",
    "format_labels",
    "parse_labels",
    "render_openmetrics",
    "dump_from_record",
    "parse_exposition",
]

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_BAD = re.compile(r"[^a-zA-Z0-9_]")
# One label: name="value" where value is any run of non-special chars
# or the three escape sequences \\, \", \n the spec defines.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\\n]|\\["\\n])*)"'
)
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{(?:" + _LABEL + r"(?:," + _LABEL + r")*)?\})?"
    r" (?P<value>-?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf)|NaN|[+-]Inf)$"
)

#: Sample-name suffixes reserved by OpenMetrics metric types.
_RESERVED_SUFFIXES = ("_total", "_count", "_sum", "_bucket", "_created")


def sanitize_metric_name(name: str) -> str:
    """Coerce a dotted registry name into a legal OpenMetrics name."""
    text = _NAME_BAD.sub("_", str(name))
    if not text or not _NAME_OK.match(text):
        text = "_" + text
    return text


def escape_label_value(value: Any) -> str:
    """Escape a label value per the OpenMetrics exposition spec:
    backslash, double quote and newline become ``\\\\``, ``\\"`` and
    ``\\n`` (everything else passes through verbatim)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _sanitize_label_name(name: str) -> str:
    text = _LABEL_NAME_BAD.sub("_", str(name))
    if not text or not text[0].isalpha() and text[0] != "_":
        text = "_" + text
    return text


def format_labels(labels: Mapping[str, Any]) -> str:
    """Render a label mapping as a ``{name="value",...}`` label set with
    spec-compliant value escaping (names sanitized, sorted for
    determinism).  An empty mapping renders as the empty string."""
    if not labels:
        return ""
    parts = [
        f'{_sanitize_label_name(name)}="{escape_label_value(value)}"'
        for name, value in sorted(labels.items(), key=lambda kv: str(kv[0]))
    ]
    return "{" + ",".join(parts) + "}"


def parse_labels(labels: str) -> Dict[str, str]:
    """Parse a ``{name="value",...}`` label set (as captured by
    :func:`parse_exposition`) back into a mapping, undoing the value
    escaping.  The empty string parses to ``{}``."""
    if not labels:
        return {}
    if not (labels.startswith("{") and labels.endswith("}")):
        raise ValueError(f"malformed label set {labels!r}")
    body = labels[1:-1]
    if not body:
        return {}
    out: Dict[str, str] = {}
    pos = 0
    while True:
        match = _LABEL_RE.match(body, pos)
        if match is None:
            raise ValueError(f"malformed label set {labels!r} at offset {pos}")
        out[match.group("name")] = _unescape_label_value(match.group("value"))
        pos = match.end()
        if pos == len(body):
            return out
        if body[pos] != ",":
            raise ValueError(f"malformed label set {labels!r} at offset {pos}")
        pos += 1


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class _Families:
    """Accumulates family blocks with collision-free sanitized names."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._used: Dict[str, str] = {}

    def family_name(self, raw: str, strip_total: bool = False) -> str:
        base = sanitize_metric_name(raw)
        if strip_total and base.endswith("_total"):
            base = base[: -len("_total")] or "_"
        candidate, n = base, 2
        while candidate in self._used and self._used[candidate] != raw:
            candidate = f"{base}_{n}"
            n += 1
        self._used[candidate] = raw
        return candidate

    def block(
        self, family: str, kind: str, original: str, unit: str = ""
    ) -> None:
        self.lines.append(f"# TYPE {family} {kind}")
        if unit:
            self.lines.append(f"# UNIT {family} {unit}")
        self.lines.append(
            f"# HELP {family} {_escape_help(f'repro metric {original!r}')}"
        )

    def sample(self, name: str, value: Any, labels: str = "") -> None:
        self.lines.append(f"{name}{labels} {_format_value(value)}")


def _summary_block(
    families: _Families,
    raw_name: str,
    stats: Mapping[str, Any],
    unit: str = "",
) -> None:
    suffix = f"_{unit}" if unit else ""
    family = families.family_name(raw_name + suffix)
    families.block(family, "summary", raw_name, unit=unit)
    for q, key in (("0.5", "p50"), ("0.95", "p95")):
        value = stats.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            families.sample(family, value, labels=f'{{quantile="{q}"}}')
    count = stats.get("count")
    total = stats.get("total")
    if isinstance(count, (int, float)) and not isinstance(count, bool):
        families.sample(f"{family}_count", int(count))
    if isinstance(total, (int, float)) and not isinstance(total, bool):
        families.sample(f"{family}_sum", float(total))


def render_openmetrics(source: Any) -> str:
    """Render a registry (or a ``dump()``-shaped mapping) as OpenMetrics
    text exposition, terminated by ``# EOF``."""
    dump: Mapping[str, Any]
    if hasattr(source, "dump"):
        dump = source.dump()
    elif isinstance(source, Mapping):
        dump = source
    else:
        raise TypeError(
            "render_openmetrics wants a MetricsRegistry or a dump mapping, "
            f"got {type(source).__name__}"
        )

    families = _Families()
    for raw_name, value in sorted((dump.get("counters") or {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        family = families.family_name(raw_name, strip_total=True)
        families.block(family, "counter", raw_name)
        families.sample(f"{family}_total", value)
    for raw_name, samples in sorted(
        (dump.get("labeled_counters") or {}).items()
    ):
        if not isinstance(samples, (list, tuple)):
            continue
        rows = [
            (entry.get("labels") or {}, entry.get("value"))
            for entry in samples
            if isinstance(entry, Mapping)
            and isinstance(entry.get("value"), (int, float))
            and not isinstance(entry.get("value"), bool)
        ]
        if not rows:
            continue  # a declared family with no samples violates the spec
        family = families.family_name(raw_name, strip_total=True)
        families.block(family, "counter", raw_name)
        for labels, value in rows:
            families.sample(
                f"{family}_total", value, labels=format_labels(labels)
            )
    for raw_name, value in sorted((dump.get("gauges") or {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        family = families.family_name(raw_name)
        families.block(family, "gauge", raw_name)
        families.sample(family, value)
    for raw_name, stats in sorted((dump.get("histograms") or {}).items()):
        if isinstance(stats, Mapping):
            _summary_block(families, raw_name, stats)
    # timers keep the dump's order: a registry dump sorts them by name,
    # repro.compiler.stage_ordered_exposition puts stage rows first
    for raw_name, stats in (dump.get("timers") or {}).items():
        if isinstance(stats, Mapping):
            _summary_block(families, raw_name, stats, unit="seconds")
    families.lines.append("# EOF")
    return "\n".join(families.lines) + "\n"


def dump_from_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """Rebuild a registry ``dump()``-shaped snapshot from a ledger
    record's volatile ``timing`` section.

    ``timing.metrics`` values that are numbers become counters; one
    level of nesting is flattened (``{"cache": {"hit": 3}}`` becomes
    counter ``cache.hit``).  ``timing.phase_wall_clock`` entries are
    timer dumps and come back as timers.
    """
    timing = record.get("timing") or {}
    counters: Dict[str, Any] = {}
    for name, value in (timing.get("metrics") or {}).items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            counters[str(name)] = value
        elif isinstance(value, Mapping):
            for sub, sub_value in value.items():
                if isinstance(sub_value, (int, float)) and not isinstance(
                    sub_value, bool
                ):
                    counters[f"{name}.{sub}"] = sub_value
    timers = {
        str(name): stats
        for name, stats in (timing.get("phase_wall_clock") or {}).items()
        if isinstance(stats, Mapping)
    }
    return {"counters": counters, "gauges": {}, "histograms": {}, "timers": timers}


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Minimal OpenMetrics validator: checks line grammar, the trailing
    ``# EOF``, and that every sample belongs to a declared family of a
    compatible type.  Returns ``{family: {"type": ..., "samples":
    [(sample_name, labels, value), ...]}}``; raises :class:`ValueError`
    on any violation.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families: Dict[str, Dict[str, Any]] = {}
    for lineno, line in enumerate(lines[:-1], start=1):
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "TYPE",
                "HELP",
                "UNIT",
            ):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            family = parts[2]
            if not _NAME_OK.match(family):
                raise ValueError(
                    f"line {lineno}: illegal family name {family!r}"
                )
            if parts[1] == "TYPE":
                if family in families:
                    raise ValueError(
                        f"line {lineno}: family {family!r} declared twice"
                    )
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: TYPE needs a type")
                families[family] = {"type": parts[3], "samples": []}
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        family = name
        for suffix in _RESERVED_SUFFIXES:
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if family not in families and name not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )
        target = families[family] if family in families else families[name]
        kind = target["type"]
        if kind == "counter" and not name.endswith(("_total", "_created")):
            raise ValueError(
                f"line {lineno}: counter sample {name!r} must end _total"
            )
        target["samples"].append(
            (name, match.group("labels") or "", match.group("value"))
        )
    for family, data in families.items():
        if not data["samples"]:
            raise ValueError(f"family {family!r} declared but has no samples")
    return families
