"""The benchmark regression gate behind ``repro bench-check``.

The gate compares the freshly generated ``benchmarks/results/*.json``
telemetry against the committed baseline records in
``benchmarks/ledger/baseline.jsonl`` and classifies every drift:

* **hard** — a correctness number changed: anything in a record's
  stable ``payload`` (cycle time, II, frustum length, transient,
  rates, net sizes, table rows).  These are deterministic for a given
  commit, so *any* drift fails the gate;
* **soft** — a wall-clock total grew beyond the configured relative
  tolerance.  Wall clock is machine-dependent, so soft findings are
  reported (and fail only under ``--wall-hard``);
* **info** — a bench exists on one side only (new benches are not
  failures; missing result files are).

The diff table is rendered with the same fixed-width table layer the
benchmark harness uses, so gate output reads like the artifacts it
guards.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import LedgerError, RegressionError
from .ledger import latest_by_name, load_records
from .schema import validate_record

__all__ = [
    "Difference",
    "GateReport",
    "load_results_records",
    "compare_records",
    "run_gate",
]

_PathLike = Union[str, pathlib.Path]

#: Default relative wall-clock tolerance: a timer may take up to this
#: many times its baseline total before the gate calls it a drift.
DEFAULT_WALL_TOLERANCE = 5.0

#: Timers whose baseline total is below this many seconds are skipped
#: by the wall-clock check — micro-timings are pure scheduler noise.
DEFAULT_WALL_FLOOR = 0.05


@dataclass(frozen=True)
class Difference:
    """One detected drift between baseline and current results."""

    bench: str
    field: str
    baseline: Any
    current: Any
    severity: str  # "hard" | "soft" | "info"
    message: str


@dataclass
class GateReport:
    """Everything ``repro bench-check`` prints and exits on."""

    differences: List[Difference] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE

    @property
    def hard_failures(self) -> List[Difference]:
        return [d for d in self.differences if d.severity == "hard"]

    @property
    def soft_failures(self) -> List[Difference]:
        return [d for d in self.differences if d.severity == "soft"]

    def failed(self, wall_hard: bool = False) -> bool:
        if self.hard_failures:
            return True
        return wall_hard and bool(self.soft_failures)

    def render(self) -> str:
        """Human-readable verdict: a diff table when something drifted,
        a one-line all-clear otherwise."""
        from ..report.tables import render_table

        lines: List[str] = []
        if self.differences:
            rows = [
                [d.bench, d.field, _fmt(d.baseline), _fmt(d.current),
                 d.severity.upper(), d.message]
                for d in self.differences
            ]
            lines.append(
                render_table(
                    ["bench", "field", "baseline", "current", "kind", "note"],
                    rows,
                    title="Regression gate: drifts against the committed baseline",
                )
            )
        summary = (
            f"checked {len(self.checked)} bench(es): "
            f"{len(self.hard_failures)} hard, "
            f"{len(self.soft_failures)} soft "
            f"(wall tolerance {self.wall_tolerance:g}x)"
        )
        lines.append(summary)
        if not self.differences:
            lines.append("OK: current results match the baseline")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if value is None:
        return "-"
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


def load_results_records(results_dir: _PathLike) -> Dict[str, Dict[str, Any]]:
    """All ``*.json`` telemetry records of a results directory, keyed
    by bench name.  Files that are not schema-versioned records raise
    :class:`~repro.errors.RegressionError` naming the file — stale
    pre-ledger results must be regenerated, not half-compared."""
    directory = pathlib.Path(results_dir)
    if not directory.is_dir():
        raise RegressionError(f"results directory {directory} does not exist")
    records: Dict[str, Dict[str, Any]] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise RegressionError(f"{path}: not valid JSON ({error})") from error
        try:
            validate_record(record)
        except LedgerError as error:
            raise RegressionError(
                f"{path}: not a schema-versioned bench record ({error}); "
                "regenerate results with `make bench`"
            ) from error
        records[str(record["name"])] = record
    if not records:
        raise RegressionError(
            f"no *.json bench records found under {directory}"
        )
    return records


def _flatten(prefix: str, value: Any) -> List[Tuple[str, Any]]:
    """Dotted-path leaves of a nested payload, in sorted key order."""
    if isinstance(value, Mapping):
        items: List[Tuple[str, Any]] = []
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            items.extend(_flatten(path, value[key]))
        return items
    if isinstance(value, list):
        items = []
        for index, element in enumerate(value):
            items.extend(_flatten(f"{prefix}[{index}]", element))
        return items
    return [(prefix, value)]


def compare_records(
    baseline: Mapping[str, Mapping[str, Any]],
    current: Mapping[str, Mapping[str, Any]],
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    wall_floor: float = DEFAULT_WALL_FLOOR,
) -> GateReport:
    """Compare current bench records against baseline records.

    Stable payloads must match exactly (hard).  Per-timer wall-clock
    totals (compiler stages and library timers alike) may grow up to
    ``wall_tolerance`` times their baseline before a soft finding is
    raised; timers whose baseline total is below ``wall_floor``
    seconds are ignored.
    """
    report = GateReport(wall_tolerance=wall_tolerance)
    for name in sorted(baseline):
        if name not in current:
            report.differences.append(
                Difference(name, "-", "present", "missing", "hard",
                           "bench result file missing")
            )
            continue
        report.checked.append(name)
        base_leaves = dict(_flatten("", baseline[name].get("payload", {})))
        curr_leaves = dict(_flatten("", current[name].get("payload", {})))
        for path in sorted(set(base_leaves) | set(curr_leaves)):
            in_base, in_curr = path in base_leaves, path in curr_leaves
            if not in_curr:
                report.differences.append(
                    Difference(name, path, base_leaves[path], None, "hard",
                               "payload field disappeared")
                )
            elif not in_base:
                report.differences.append(
                    Difference(name, path, None, curr_leaves[path], "hard",
                               "payload field appeared")
                )
            elif base_leaves[path] != curr_leaves[path]:
                report.differences.append(
                    Difference(name, path, base_leaves[path],
                               curr_leaves[path], "hard",
                               "correctness number drifted")
                )
        _compare_wall_clock(
            report, name, baseline[name], current[name],
            wall_tolerance, wall_floor,
        )
    for name in sorted(set(current) - set(baseline)):
        report.differences.append(
            Difference(name, "-", None, "present", "info",
                       "new bench (not in baseline); record a new baseline")
        )
    return report


def _timer_totals(record: Mapping[str, Any]) -> Dict[str, float]:
    timers = record.get("timing", {}).get("phase_wall_clock", {})
    totals: Dict[str, float] = {}
    for timer, stats in timers.items():
        if isinstance(stats, Mapping) and isinstance(
            stats.get("total"), (int, float)
        ):
            totals[str(timer)] = float(stats["total"])
    return totals


def _compare_wall_clock(
    report: GateReport,
    name: str,
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    tolerance: float,
    floor: float,
) -> None:
    base_totals = _timer_totals(baseline)
    curr_totals = _timer_totals(current)
    for timer in sorted(set(base_totals) & set(curr_totals)):
        base_total = base_totals[timer]
        if base_total < floor:
            continue
        curr_total = curr_totals[timer]
        if curr_total > base_total * tolerance:
            report.differences.append(
                Difference(
                    name, f"wall:{timer}", base_total, curr_total, "soft",
                    f"wall clock grew {curr_total / base_total:.1f}x "
                    f"(tolerance {tolerance:g}x)",
                )
            )


def run_gate(
    results_dir: _PathLike,
    baseline_file: _PathLike,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    wall_floor: float = DEFAULT_WALL_FLOOR,
) -> GateReport:
    """Load both sides and compare — the whole ``bench-check`` core."""
    baseline_records = load_records(baseline_file)
    if not baseline_records:
        raise RegressionError(
            f"no baseline records in {baseline_file}; record one with "
            "`repro bench-check --update-baseline` and commit it"
        )
    return compare_records(
        latest_by_name(baseline_records),
        load_results_records(results_dir),
        wall_tolerance=wall_tolerance,
        wall_floor=wall_floor,
    )
