"""The run-ledger record schema (stable, versioned).

Every cross-run artifact in this project — ledger records under
``benchmarks/ledger/``, the per-bench telemetry in
``benchmarks/results/*.json``, the regression gate's baselines — shares
one normalised record layout so that tooling written against one of
them works against all of them:

``schema_version``
    integer, bumped whenever a field changes meaning (consumers must
    refuse versions they do not know);
``kind``
    ``"bench"`` for benchmark telemetry, ``"cli"`` for a ``repro``
    invocation;
``name``
    the bench name (``fig1_l1_pipeline``) or the loop name;
``payload``
    the **stable** numbers: cycle time, frustum length, transient,
    rates, net sizes.  Everything in the payload is deterministic for a
    given commit — the regression gate hard-fails on any drift here and
    ``git diff`` over committed results stays meaningful;
``timing``
    volatile wall-clock measurements (per-timer dumps) — the gate
    applies a soft relative tolerance here;
``environment``
    volatile provenance: python/platform/hostname and an ISO timestamp;
``git_sha`` / ``command``
    provenance of the run itself.

Normalisation rules (applied by :func:`normalize_value`):

* ``Fraction`` values become their exact ``"p/q"`` string — rationals
  must round-trip losslessly, they are correctness numbers;
* floats are rounded to :data:`FLOAT_DECIMALS` decimal places so that
  re-serialising a loaded record is byte-identical and diffs never
  churn on 17-significant-digit noise;
* mappings are emitted with sorted keys (via :func:`stable_json`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, Mapping, Optional

from ..errors import LedgerError

__all__ = [
    "SCHEMA_VERSION",
    "FLOAT_DECIMALS",
    "RECORD_KINDS",
    "VOLATILE_SECTIONS",
    "normalize_value",
    "normalize_payload",
    "validate_record",
    "stable_json",
]

#: Bump on any incompatible field change; consumers must check it.
SCHEMA_VERSION = 1

#: Fixed float precision for everything the ledger serialises.
FLOAT_DECIMALS = 9

#: Legal values of a record's ``kind`` field.  ``"sweep"`` records are
#: appended by ``repro sweep`` / :func:`repro.batch.compile_many` and
#: carry the deterministic merged batch payload plus (volatile) cache
#: hit/miss counters in their ``timing.metrics`` section.  ``"serve"``
#: records come from the service latency bench
#: (``benchmarks/bench_serve.py``): the payload pins the served bytes
#: (sha256), the volatile latency percentiles live under ``timing``.
#: ``"stagecache"`` records come from the per-stage artifact-cache
#: bench (``benchmarks/bench_stagecache.py``): the payload pins the
#: stage resolution outcomes of a cold vs warm recompile, the volatile
#: wall clocks live under ``timing``.
RECORD_KINDS = ("bench", "cli", "sweep", "serve", "stagecache")

#: Top-level sections the regression gate treats as volatile: allowed
#: to drift between runs (within tolerance for ``timing``; freely for
#: ``environment``).
VOLATILE_SECTIONS = ("timing", "environment")

#: Fields every record must carry.
_REQUIRED = ("schema_version", "kind", "name", "payload")


def normalize_value(value: Any) -> Any:
    """Recursively convert ``value`` into deterministic JSON-ready data.

    Fractions serialise exactly (``"1/3"``), floats are rounded to
    :data:`FLOAT_DECIMALS` places, tuples become lists, and nested
    mappings are normalised recursively.  Unknown objects fall back to
    ``str`` — the same escape hatch the benchmark telemetry always used.
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return round(value, FLOAT_DECIMALS)
    if isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return {str(k): normalize_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [normalize_value(v) for v in items]
    return str(value)


def normalize_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalise a stable-payload mapping (keys sorted at dump time)."""
    return {str(k): normalize_value(v) for k, v in payload.items()}


def validate_record(record: Mapping[str, Any]) -> None:
    """Raise :class:`~repro.errors.LedgerError` unless ``record`` is a
    well-formed ledger record of a known schema version."""
    if not isinstance(record, Mapping):
        raise LedgerError(
            f"ledger record must be a mapping, got {type(record).__name__}"
        )
    for field in _REQUIRED:
        if field not in record:
            raise LedgerError(f"ledger record is missing field {field!r}")
    version = record["schema_version"]
    if version != SCHEMA_VERSION:
        raise LedgerError(
            f"unknown ledger schema version {version!r} "
            f"(this build understands version {SCHEMA_VERSION})"
        )
    if record["kind"] not in RECORD_KINDS:
        raise LedgerError(
            f"ledger record kind must be one of {RECORD_KINDS}, "
            f"got {record['kind']!r}"
        )
    if not isinstance(record["name"], str) or not record["name"]:
        raise LedgerError("ledger record 'name' must be a non-empty string")
    if not isinstance(record["payload"], Mapping):
        raise LedgerError("ledger record 'payload' must be a mapping")
    for section in VOLATILE_SECTIONS:
        if section in record and not isinstance(record[section], Mapping):
            raise LedgerError(
                f"ledger record {section!r} must be a mapping when present"
            )


def stable_json(value: Any, indent: Optional[int] = None) -> str:
    """Deterministic JSON: sorted keys, normalised values, no trailing
    whitespace surprises.  One-line (``indent=None``) for JSONL rows,
    indented for the committed ``benchmarks/results/*.json`` files."""
    return json.dumps(
        normalize_value(value),
        indent=indent,
        sort_keys=True,
        separators=(",", ": ") if indent is not None else (",", ":"),
    )
