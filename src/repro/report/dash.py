"""The bottleneck-attribution dashboard behind ``repro dash``.

Renders one **self-contained** HTML file — inline CSS, inline SVG, no
external assets, no scripts — answering the question the paper keeps
answering with theorems: *why is this loop's initiation interval what
it is?*

Sections:

* headline stat tiles (cycle time ``Ω(C*)``, rate, II, frustum);
* the steady-state kernel as a Gantt timeline (one row per
  instruction, one bar per firing inside the II window), bottleneck
  transitions — the ones on a critical cycle — marked;
* the slack/utilization table from
  :mod:`repro.core.attribution`: zero-slack rows are exactly the
  transitions on ``C*``; every other row says how much its firing time
  could grow before ``Ω`` (and hence the optimal rate) changes;
* token-occupancy sparklines per place over the frustum window;
* when ledger history exists (``benchmarks/ledger/runs.jsonl``), trend
  charts of cycle time and detection cost across commits;
* when a ledger record carries a ``timing.blame`` summary (``repro
  explain <loop> --ledger``), the causality lane: the observed
  critical path with its structural verdict and a per-transition
  wait-state waterfall (records from another blame schema version
  degrade to a placeholder card).

All numbers are computed by the core layers; this module only formats.
Charts carry native ``<title>`` hover tooltips and every chart has a
table twin, so nothing is gated on color vision or pointer precision.
"""

from __future__ import annotations

import html
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.attribution import AttributionReport
from .tables import format_cell

__all__ = ["render_dash", "TrendPoint"]


# --------------------------------------------------------------------------
# Palette: the validated reference instance (light + selected dark steps).
# Roles only — the chart body never mentions raw hex.
# --------------------------------------------------------------------------
_CSS = """
:root {
  color-scheme: light dark;
}
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
  --series-2: #e8883a;
  --series-3: #7b5cd6;
  --series-4: #2f9e73;
  --series-track: #cde2fb;
  --critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary);
  background: var(--page);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #ef9a54;
    --series-3: #9279e0;
    --series-4: #3cb587;
    --series-track: #0d366b;
    --critical: #d03b3b;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .subtitle { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.viz-root .card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px;
  margin-bottom: 16px;
}
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px 16px;
  min-width: 110px;
}
.viz-root .tile .label { font-size: 12px; color: var(--text-secondary); }
.viz-root .tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.viz-root .tile .hint { font-size: 11px; color: var(--text-muted); margin-top: 2px; }
.viz-root table { border-collapse: collapse; font-size: 13px; width: 100%; }
.viz-root th {
  text-align: left; color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 6px 10px 6px 0;
}
.viz-root td {
  border-bottom: 1px solid var(--grid); padding: 6px 10px 6px 0;
  font-variant-numeric: tabular-nums;
}
.viz-root td.name { font-variant-numeric: normal; }
.viz-root tr.bottleneck td { font-weight: 600; }
.viz-root .badge {
  display: inline-block; font-size: 11px; font-weight: 600;
  color: var(--critical); margin-left: 6px;
}
.viz-root .meter {
  display: inline-block; width: 120px; height: 8px; border-radius: 4px;
  background: var(--series-track); vertical-align: middle; overflow: hidden;
}
.viz-root .meter > span {
  display: block; height: 100%; background: var(--series-1);
  border-radius: 4px 0 0 4px;
}
.viz-root .legend { font-size: 12px; color: var(--text-secondary); margin: 4px 0 8px; }
.viz-root .legend .key {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin: 0 4px 0 12px; vertical-align: baseline;
}
.viz-root .sparkgrid {
  display: grid; grid-template-columns: repeat(auto-fill, minmax(190px, 1fr));
  gap: 8px 16px;
}
.viz-root .spark { font-size: 11px; color: var(--text-secondary); white-space: nowrap; }
.viz-root .spark svg { vertical-align: middle; margin-right: 6px; }
.viz-root .note { font-size: 12px; color: var(--text-muted); }
.viz-root details summary { cursor: pointer; font-size: 12px; color: var(--text-secondary); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _frac(value: Any) -> str:
    return _esc(format_cell(value))


# --------------------------------------------------------------------------
# Charts (inline SVG, roles from the CSS custom properties above)
# --------------------------------------------------------------------------


def _gantt_svg(
    kernel_rows: Sequence[Tuple[str, List[Tuple[int, int]]]],
    period: int,
    durations: Mapping[str, int],
    critical: frozenset,
) -> str:
    """The steady-state kernel as a timeline: one row per instruction,
    one bar per firing at its relative issue cycle."""
    row_h, bar_h, left, top, cell = 26, 16, 84, 8, 48
    max_end = max(period, 1)
    for name, firings in kernel_rows:
        for rel, _base in firings:
            max_end = max(max_end, rel + durations.get(name, 1))
    width = left + max_end * cell + 12
    height = top + row_h * len(kernel_rows) + 26
    plot_bottom = top + row_h * len(kernel_rows)
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'aria-label="Steady-state kernel timeline">'
    ]
    # recessive cycle gridlines + tick labels
    for cycle in range(max_end + 1):
        x = left + cycle * cell
        parts.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" y2="{plot_bottom}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{height - 8}" font-size="11" '
            f'fill="var(--text-muted)" text-anchor="middle">+{cycle}</text>'
        )
    if max_end > period:
        # firings wrap past the II boundary; mark it in the axis ink
        x = left + period * cell
        parts.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" y2="{plot_bottom}" '
            f'stroke="var(--axis)" stroke-width="1" '
            f'stroke-dasharray="3 3"><title>II boundary: firings to the '
            f"right overlap the next kernel instance</title></line>"
        )
    for index, (name, firings) in enumerate(kernel_rows):
        y = top + index * row_h
        mid = y + row_h // 2
        is_critical = name in critical
        label = _esc(name) + (" ●" if is_critical else "")
        parts.append(
            f'<text x="{left - 8}" y="{mid + 4}" font-size="12" '
            f'fill="var(--text-primary)" text-anchor="end">{label}</text>'
        )
        color = "var(--critical)" if is_critical else "var(--series-1)"
        for rel, base in firings:
            bar_w = max(durations.get(name, 1) * cell - 2, 6)
            x = left + rel * cell + 1
            tip = (
                f"{_esc(name)} fires at +{rel} for "
                f"{durations.get(name, 1)} cycle(s), iteration offset {base}"
            )
            parts.append(
                f'<rect x="{x}" y="{mid - bar_h // 2}" width="{bar_w}" '
                f'height="{bar_h}" rx="4" fill="{color}">'
                f"<title>{tip}</title></rect>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _sparkline_svg(series: Sequence[int], tip: str) -> str:
    """A 2px single-series sparkline (token occupancy over the frustum
    window); flat-zero series render as a baseline hairline."""
    width, height, pad = 120, 26, 4
    top = max(max(series), 1)
    n = len(series)
    step = (width - 2 * pad) / max(n - 1, 1)
    points = []
    for i, value in enumerate(series):
        x = pad + i * step
        y = height - pad - (value / top) * (height - 2 * pad)
        points.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="{_esc(tip)}">'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="var(--grid)" stroke-width="1"/>'
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="var(--series-1)" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round">'
        f"<title>{_esc(tip)}</title></polyline></svg>"
    )


class TrendPoint:
    """One ledger observation for the trend charts."""

    __slots__ = ("label", "value", "tip")

    def __init__(self, label: str, value: float, tip: str = "") -> None:
        self.label = label
        self.value = value
        self.tip = tip or f"{label}: {value}"


def _trend_svg(points: Sequence[TrendPoint], unit: str) -> str:
    """Single-series line chart with ≥8px markers carrying a 2px
    surface ring; x labels are short commit SHAs."""
    width, height = 620, 150
    left, right, top, bottom = 46, 12, 10, 28
    plot_w, plot_h = width - left - right, height - top - bottom
    values = [p.value for p in points]
    low, high = min(values), max(values)
    if high == low:
        high = low + (abs(low) or 1.0)
    span = high - low
    n = len(points)
    step = plot_w / max(n - 1, 1)

    def xy(i: int, v: float) -> Tuple[float, float]:
        return left + i * step, top + plot_h - ((v - low) / span) * plot_h

    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="trend ({_esc(unit)})">'
    ]
    for frac_pos, value in ((0.0, low), (0.5, (low + high) / 2), (1.0, high)):
        y = top + plot_h - frac_pos * plot_h
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" font-size="10" '
            f'fill="var(--text-muted)" text-anchor="end">'
            f"{value:.4g}</text>"
        )
    coords = [xy(i, p.value) for i, p in enumerate(points)]
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    parts.append(
        f'<polyline points="{polyline}" fill="none" '
        f'stroke="var(--series-1)" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round"/>'
    )
    label_every = max(1, n // 10)
    for i, (point, (x, y)) in enumerate(zip(points, coords)):
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
            f'fill="var(--series-1)" stroke="var(--surface-1)" '
            f'stroke-width="2"><title>{_esc(point.tip)}</title></circle>'
        )
        if i % label_every == 0:
            parts.append(
                f'<text x="{x:.1f}" y="{height - 8}" font-size="10" '
                f'fill="var(--text-muted)" text-anchor="middle">'
                f"{_esc(point.label)}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)


# --------------------------------------------------------------------------
# Sections
# --------------------------------------------------------------------------


def _tiles_html(attribution: AttributionReport, schedule: Any) -> str:
    tiles = [
        ("Cycle time Ω(C*)", format_cell(attribution.cycle_time),
         "max Ω(C)/M(C) over simple cycles"),
        ("Initiation interval", str(schedule.initiation_interval),
         f"{schedule.iterations_per_kernel} iteration(s) per kernel"),
        ("Rate", format_cell(schedule.rate), "iterations per cycle"),
        ("Frustum", str(attribution.period),
         "steady-state period (cycles)"),
        ("Bottlenecks", str(len(attribution.bottlenecks())),
         f"of {len(attribution.transitions)} transitions on C*"),
    ]
    cells = "".join(
        '<div class="tile">'
        f'<div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div>'
        f'<div class="hint">{_esc(hint)}</div></div>'
        for label, value, hint in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _slack_table_html(attribution: AttributionReport) -> str:
    rows = []
    for entry in attribution.transitions:
        badge = (
            '<span class="badge">● on C*</span>'
            if entry.is_bottleneck
            else ""
        )
        pct = float(entry.utilization) * 100.0
        slack_text = (
            "0 (critical)"
            if entry.is_bottleneck
            else f"+{format_cell(entry.slack)} cycles"
        )
        cycle = " → ".join(entry.binding_cycle)
        rows.append(
            f'<tr class="{"bottleneck" if entry.is_bottleneck else ""}">'
            f'<td class="name">{_esc(entry.transition)}{badge}</td>'
            f"<td>{entry.duration}</td>"
            f"<td>{entry.firings}</td>"
            f'<td><span class="meter"><span style="width:{pct:.0f}%">'
            f"</span></span> {_frac(entry.utilization)}</td>"
            f"<td>{_esc(slack_text)}</td>"
            f'<td class="name">{_esc(cycle)}</td></tr>'
        )
    return (
        "<table><thead><tr>"
        "<th>transition</th><th>τ</th><th>firings / period</th>"
        "<th>utilization</th><th>slack before Ω changes</th>"
        "<th>binding cycle</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def _occupancy_html(occupancy: Mapping[str, Sequence[int]]) -> str:
    cells = []
    for place, series in occupancy.items():
        peak = max(series) if series else 0
        tip = (
            f"{place}: tokens per cycle over the frustum "
            f"{list(series)} (peak {peak})"
        )
        cells.append(
            '<div class="spark">'
            + _sparkline_svg(list(series), tip)
            + f"{_esc(place)} <span>(peak {peak})</span></div>"
        )
    return f'<div class="sparkgrid">{"".join(cells)}</div>'


def _history_html(history: Sequence[Mapping[str, Any]]) -> str:
    """Trend charts from ledger records (same loop, append order)."""
    cycle_points: List[TrendPoint] = []
    detect_points: List[TrendPoint] = []
    for record in history:
        sha = str(record.get("git_sha", "?"))[:7]
        payload = record.get("payload", {})
        cycle = payload.get("cycle_time")
        if isinstance(cycle, str) and "/" in cycle:
            try:
                num, den = cycle.split("/")
                cycle = float(Fraction(int(num), int(den)))
            except ValueError:
                cycle = None
        if isinstance(cycle, (int, float)):
            cycle_points.append(
                TrendPoint(sha, float(cycle), f"{sha}: cycle time {cycle}")
            )
        timers = record.get("timing", {}).get("phase_wall_clock", {})
        detect = timers.get("petrinet.detect_frustum")
        if isinstance(detect, Mapping) and isinstance(
            detect.get("total"), (int, float)
        ):
            seconds = float(detect["total"])
            detect_points.append(
                TrendPoint(sha, seconds, f"{sha}: detection {seconds:.6f}s")
            )
    if len(cycle_points) < 2 and len(detect_points) < 2:
        return (
            '<p class="note">Not enough ledger history for trends yet — '
            "append runs with <code>repro schedule &lt;loop&gt; "
            "--ledger</code> or <code>make bench</code>.</p>"
        )
    sections = []
    if len(cycle_points) >= 2:
        sections.append("<h2>Cycle time across commits</h2>")
        sections.append(_trend_svg(cycle_points, "cycles"))
        sections.append(_trend_table(cycle_points, "cycle time"))
    if len(detect_points) >= 2:
        sections.append("<h2>Frustum-detection cost across commits</h2>")
        sections.append(_trend_svg(detect_points, "seconds"))
        sections.append(_trend_table(detect_points, "detection seconds"))
    return "".join(sections)


def _sweep_html(sweep_history: Sequence[Mapping[str, Any]]) -> str:
    """Worker-lane utilization of the latest traced sweep record.

    Reads the volatile ``timing.spans`` summary that ``repro sweep
    --ledger`` appends: busy seconds per worker lane, the critical
    (wall-clock-bounding) lane, and per-stage p50/p95.  Percentiles
    computed from an overflowed sample window are marked ``~``.
    """
    from ..compiler import in_report_order

    latest: Optional[Mapping[str, Any]] = None
    for record in sweep_history:
        spans = record.get("timing", {}).get("spans")
        if isinstance(spans, Mapping) and spans.get("lanes"):
            latest = record
    if latest is None:
        return ""
    spans = latest["timing"]["spans"]
    sha = str(latest.get("git_sha", "?"))[:7]
    lanes = spans.get("lanes", {})
    critical = spans.get("critical_path") or {}
    critical_worker = critical.get("worker")
    lane_rows = []
    for worker in sorted(lanes):
        lane = lanes[worker]
        marker = " ●" if worker == critical_worker else ""
        lane_rows.append(
            f'<tr><td class="name">{_esc(worker)}{marker}</td>'
            f'<td>{lane.get("items", 0)}</td>'
            f'<td>{float(lane.get("busy_seconds", 0.0)):.3f}</td></tr>'
        )
    stage_rows = []
    for name, stats in in_report_order(spans.get("stages") or {}).items():
        approx = "" if stats.get("exact_percentiles", True) else "~"
        p50 = stats.get("p50")
        p95 = stats.get("p95")
        stage_rows.append(
            f'<tr><td class="name">{_esc(name)}</td>'
            f'<td>{stats.get("count", 0)}</td>'
            f"<td>{approx}{p50:.6f}</td><td>{approx}{p95:.6f}</td></tr>"
            if isinstance(p50, (int, float)) and isinstance(p95, (int, float))
            else f'<tr><td class="name">{_esc(name)}</td>'
            f'<td>{stats.get("count", 0)}</td><td>—</td><td>—</td></tr>'
        )
    sections = [
        f"<h2>Sweep lanes — {_esc(str(latest.get('name', 'sweep')))} "
        f"at {_esc(sha)}</h2>",
        '<p class="note">● marks the critical lane: the busiest worker, '
        "whose chain of item compiles bounds the sweep’s wall clock. "
        "A ~ prefix marks percentiles estimated from a bounded sample "
        "window.</p>",
        "<table><thead><tr><th>lane</th><th>items</th>"
        "<th>busy s</th></tr></thead>"
        f'<tbody>{"".join(lane_rows)}</tbody></table>',
    ]
    if stage_rows:
        sections.append(
            "<details><summary>per-stage percentiles</summary>"
            "<table><thead><tr><th>timer</th><th>n</th><th>p50 s</th>"
            "<th>p95 s</th></tr></thead>"
            f'<tbody>{"".join(stage_rows)}</tbody></table></details>'
        )
    return "".join(sections)


def _stages_html(
    history: Sequence[Mapping[str, Any]],
    sweep_history: Sequence[Mapping[str, Any]] = (),
) -> str:
    """Per-stage timing from the latest ledger record that carries
    stage rows — the stages in stage order, then the unattributed
    remainder and the compile total they sum to — plus the
    artifact-cache resolution totals of the latest sweep record that
    went through the per-stage store."""
    from ..compiler import split_timers

    latest: Optional[Mapping[str, Any]] = None
    for record in history:
        timers = record.get("timing", {}).get("phase_wall_clock", {})
        if any(name.startswith("stage.") for name in timers):
            latest = record
    sections: List[str] = []
    if latest is not None:
        sha = str(latest.get("git_sha", "?"))[:7]
        breakdown, _ = split_timers(latest["timing"]["phase_wall_clock"])
        rows = []
        for name, stats in breakdown.items():
            if not isinstance(stats, Mapping):
                continue
            total = stats.get("total")
            rows.append(
                f'<tr><td class="name">{_esc(name)}</td>'
                f'<td>{stats.get("count", 0)}</td>'
                + (
                    f"<td>{float(total):.6f}</td></tr>"
                    if isinstance(total, (int, float))
                    else "<td>—</td></tr>"
                )
            )
        if rows:
            sections.append(
                f"<h2>Compiler stages at {_esc(sha)}</h2>"
                '<p class="note">Self time per compiler pass from the '
                "newest ledger run, in stage order; the unattributed row "
                "is the compile total minus the stage rows.</p>"
                "<table><thead><tr><th>timer</th>"
                "<th>calls</th><th>total s</th></tr></thead>"
                f'<tbody>{"".join(rows)}</tbody></table>'
            )
    latest_cache: Optional[Mapping[str, Any]] = None
    latest_cache_sha = "?"
    for record in sweep_history:
        stage_cache = (
            record.get("timing", {}).get("metrics", {}).get("stage_cache")
        )
        if isinstance(stage_cache, Mapping):
            latest_cache = stage_cache
            latest_cache_sha = str(record.get("git_sha", "?"))[:7]
    if latest_cache is not None:
        sections.append(
            f"<h3>Artifact cache (latest sweep, {_esc(latest_cache_sha)})"
            "</h3>"
            "<table><thead><tr><th>hits</th><th>misses</th>"
            "<th>hydrations</th></tr></thead><tbody><tr>"
            f'<td>{latest_cache.get("hit", 0)}</td>'
            f'<td>{latest_cache.get("miss", 0)}</td>'
            f'<td>{latest_cache.get("hydrate", 0)}</td>'
            "</tr></tbody></table>"
        )
    return "".join(sections)


#: Wait-state kinds in waterfall stacking order, with their palette
#: role and legend label.  Must track
#: :data:`repro.obs.causality.WAIT_KINDS` plus executing/idle.
_WAIT_SEGMENTS: Tuple[Tuple[str, str, str], ...] = (
    ("executing", "var(--series-1)", "executing"),
    ("data", "var(--series-2)", "data wait"),
    ("feedback", "var(--series-3)", "feedback wait"),
    ("ack", "var(--series-4)", "ack wait"),
    ("resource", "var(--critical)", "resource wait"),
    ("self", "var(--axis)", "re-fire wait"),
    ("idle", "var(--series-track)", "idle"),
)


def _waterfall_svg(
    wait_states: Mapping[str, Mapping[str, Any]], horizon: int
) -> str:
    """Stacked per-transition waterfall of the wait-state
    decomposition: one row per transition, segments in
    :data:`_WAIT_SEGMENTS` order, widths proportional to cycles over
    the horizon (they tile it exactly)."""
    row_h, bar_h, left, top = 24, 14, 150, 6
    plot_w = 420
    names = sorted(wait_states)
    width = left + plot_w + 12
    height = top + row_h * len(names) + 8
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'aria-label="Wait-state waterfall per transition">'
    ]
    scale = plot_w / max(horizon, 1)
    for index, name in enumerate(names):
        profile = wait_states[name]
        waits = profile.get("waits") or {}
        y = top + index * row_h
        mid = y + row_h // 2
        parts.append(
            f'<text x="{left - 8}" y="{mid + 4}" font-size="12" '
            f'fill="var(--text-primary)" text-anchor="end">'
            f"{_esc(name)}</text>"
        )
        x = float(left)
        for key, color, label in _WAIT_SEGMENTS:
            cycles = (
                profile.get(key, 0) if key in ("executing", "idle")
                else waits.get(key, 0)
            )
            if not isinstance(cycles, (int, float)) or cycles <= 0:
                continue
            seg_w = cycles * scale
            tip = f"{_esc(name)}: {label} {cycles} / {horizon} cycles"
            parts.append(
                f'<rect x="{x:.1f}" y="{mid - bar_h // 2}" '
                f'width="{max(seg_w, 1):.1f}" height="{bar_h}" '
                f'fill="{color}"><title>{tip}</title></rect>'
            )
            x += seg_w
    parts.append("</svg>")
    return "".join(parts)


def _causality_html(history: Sequence[Mapping[str, Any]]) -> str:
    """The causality lane: observed critical path and wait-state
    waterfall from the latest ledger record carrying a ``timing.blame``
    summary (``repro explain <loop> --ledger``).

    Returns the empty string when no record has blame data; renders a
    placeholder card when the newest blame summary predates (or
    postdates) the schema this build understands, instead of guessing
    at unknown fields.
    """
    from ..core.blame import BLAME_SCHEMA_VERSION

    latest: Optional[Mapping[str, Any]] = None
    latest_sha = "?"
    for record in history:
        blame = record.get("timing", {}).get("blame")
        if isinstance(blame, Mapping):
            latest = blame
            latest_sha = str(record.get("git_sha", "?"))[:7]
    if latest is None:
        return ""
    version = latest.get("schema_version")
    if version != BLAME_SCHEMA_VERSION:
        return (
            "<h2>Causality</h2>"
            '<p class="note">The newest blame summary in the ledger uses '
            f"schema version {_esc(version)}, but this build renders "
            f"version {BLAME_SCHEMA_VERSION} — re-run <code>repro explain "
            "&lt;loop&gt; --ledger</code> to refresh it.</p>"
        )
    horizon = latest.get("horizon")
    wait_states = latest.get("wait_states")
    observed = latest.get("observed_cycle")
    sections = [f"<h2>Causality — observed critical path at {_esc(latest_sha)}</h2>"]
    if isinstance(observed, Mapping) and observed.get("transitions"):
        path = " → ".join(str(t) for t in observed["transitions"])
        verdict = (
            "matches the Howard witness C*"
            if latest.get("matches_howard")
            else "matches a structural critical cycle"
            if latest.get("observed_match")
            else "no structural match (resource-shaped or transient)"
        )
        sections.append(
            f'<p class="note">{_esc(path)} — per-iteration length '
            f'{_esc(observed.get("cycle_time", "?"))} ({_esc(verdict)}; '
            f'model {_esc(latest.get("model", "?"))}).</p>'
        )
    else:
        sections.append(
            '<p class="note">The blame walk drained into the transient — '
            "re-run <code>repro explain</code> with more "
            "<code>--periods</code>.</p>"
        )
    if isinstance(wait_states, Mapping) and wait_states and isinstance(
        horizon, int
    ):
        legend = "".join(
            f'<span class="key" style="background:{color}"></span>{label}'
            for _key, color, label in _WAIT_SEGMENTS
        )
        sections.append(f'<div class="legend">{legend}</div>')
        sections.append(_waterfall_svg(wait_states, horizon))
        rows = []
        for name in sorted(wait_states):
            profile = wait_states[name]
            waits = profile.get("waits") or {}
            cells = "".join(
                f"<td>{_esc(profile.get(key, 0) if key in ('executing', 'idle') else waits.get(key, 0))}</td>"
                for key, _c, _l in _WAIT_SEGMENTS
            )
            rows.append(
                f'<tr><td class="name">{_esc(name)}</td>'
                f'<td>{_esc(profile.get("firings", 0))}</td>{cells}</tr>'
            )
        headers = "".join(f"<th>{label}</th>" for _k, _c, label in _WAIT_SEGMENTS)
        sections.append(
            "<details><summary>table view — wait states "
            f"(cycles over horizon {_esc(horizon)})</summary>"
            f"<table><thead><tr><th>transition</th><th>fired</th>{headers}"
            f'</tr></thead><tbody>{"".join(rows)}</tbody></table></details>'
        )
    return "".join(sections)


def _trend_table(points: Sequence[TrendPoint], label: str) -> str:
    rows = "".join(
        f'<tr><td class="name">{_esc(p.label)}</td><td>{p.value:g}</td></tr>'
        for p in points
    )
    return (
        f"<details><summary>table view — {_esc(label)}</summary>"
        f"<table><thead><tr><th>commit</th><th>{_esc(label)}</th></tr>"
        f"</thead><tbody>{rows}</tbody></table></details>"
    )


def render_dash(
    loop_name: str,
    attribution: AttributionReport,
    schedule: Any,
    durations: Mapping[str, int],
    occupancy: Mapping[str, Sequence[int]],
    history: Sequence[Mapping[str, Any]] = (),
    sweep_history: Sequence[Mapping[str, Any]] = (),
    git_sha: str = "unknown",
) -> str:
    """Assemble the complete self-contained HTML document."""
    kernel_by_name: Dict[str, List[Tuple[int, int]]] = {}
    for rel, name, base in sorted(schedule.kernel):
        kernel_by_name.setdefault(name, []).append((rel, base))
    kernel_rows = sorted(kernel_by_name.items())

    has_critical = bool(attribution.critical_transitions)
    has_noncritical = len(attribution.critical_transitions) < len(
        attribution.transitions
    )
    legend = ""
    if has_critical and has_noncritical:
        legend = (
            '<div class="legend">'
            '<span class="key" style="background:var(--critical)"></span>'
            "● on a critical cycle (zero slack)"
            '<span class="key" style="background:var(--series-1)"></span>'
            "off the critical cycle</div>"
        )
    elif has_critical:
        legend = (
            '<div class="legend">'
            '<span class="key" style="background:var(--critical)"></span>'
            "● every transition lies on a critical cycle "
            "(all zero slack)</div>"
        )

    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>repro dash — {_esc(loop_name)}</title>",
        f"<style>{_CSS}</style></head>",
        '<body class="viz-root">',
        f"<h1>repro dash — loop {_esc(loop_name)}</h1>",
        f'<p class="subtitle">steady-state attribution at commit '
        f"{_esc(git_sha[:12])} · p = Ω(C*) = "
        f"{_frac(attribution.cycle_time)}</p>",
        _tiles_html(attribution, schedule),
        '<div class="card"><h2 style="margin-top:0">Steady-state kernel '
        f"(II = {schedule.initiation_interval})</h2>",
        legend,
        _gantt_svg(
            kernel_rows,
            schedule.initiation_interval,
            durations,
            attribution.critical_transitions,
        ),
        "</div>",
        '<div class="card"><h2 style="margin-top:0">Bottleneck attribution'
        "</h2>"
        '<p class="note">Slack: how much a transition’s firing time '
        "could grow before the cycle time Ω(C*) — and with it the "
        "optimal rate — changes. Zero-slack transitions are exactly "
        "the ones on a critical cycle.</p>",
        _slack_table_html(attribution),
        "</div>",
        '<div class="card"><h2 style="margin-top:0">Token occupancy per '
        "place (frustum window)</h2>",
        _occupancy_html(occupancy),
        "</div>",
        '<div class="card">',
        _history_html(history),
        "</div>",
    ]
    causality_section = _causality_html(history)
    if causality_section:
        parts.append('<div class="card">' + causality_section + "</div>")
    sweep_section = _sweep_html(sweep_history)
    if sweep_section:
        parts.append('<div class="card">' + sweep_section + "</div>")
    stages_section = _stages_html(history, sweep_history)
    if stages_section:
        parts.append('<div class="card">' + stages_section + "</div>")
    parts.append("</body></html>")
    return "\n".join(parts)
