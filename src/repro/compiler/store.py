"""The artifact store: the one on-disk cache of everything a compile
produces.

One verified, atomically written JSON file per (stage, key):
``<root>/<stage>/<key>.json``.  Two kinds of key address the entries:

* a stage artifact lives under its *request key* — sha256 over (store
  schema, stage name, stage code version, upstream artifact
  fingerprints, stage parameters; :func:`repro.compiler.request_key`).
  Because downstream keys are derived from upstream **fingerprints**
  (see :mod:`repro.compiler.artifacts`), changing a downstream
  parameter — the unroll factor, the simulation engine, the SCP depth
  — leaves every upstream entry addressable and only the genuinely
  affected suffix of the pipeline recomputes;
* the whole payload is the ``summarize`` entry, addressed by the
  request itself (:func:`repro.batch.cache.cache_key`), so a
  whole-payload hit is one read that resolves no upstream stage.
  :class:`repro.batch.cache.CompileCache` is that view of the store.

Integrity rules:

* **atomic writes** — :func:`atomic_write_json` stages the bytes in a
  temp file beside the entry and ``os.replace``-s it into place, so a
  crashed or killed writer never leaves a half-written entry, and two
  writers racing on the same key both land a complete (identical)
  file;
* **verified reads** — a load recomputes the embedded data hash and
  checks the stored stage, key and schema; any mismatch (truncation,
  bit rot, another schema) counts as a miss and as ``corrupt``, and
  the entry is removed so the slot heals on the next store.

Counters: one family, ``stage.cache.<outcome>`` plus the per-stage
``stage.cache.<outcome>.<stage>``, for the outcomes in
:data:`STAGE_CACHE_OUTCOMES` (the pass manager counts its hydrations
through :meth:`ArtifactStore.count` too).  Explicit ``counter()`` calls
work even while the registry is disabled, so sweep and service records
report hit rates without the profiling machinery switched on.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, Mapping, Optional, Union

from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.schema import stable_json

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STAGE_CACHE_OUTCOMES",
    "ArtifactStore",
    "atomic_write_json",
    "record_counts",
]

#: Bump whenever the entry layout, the request-key derivation or the
#: payload layout changes — old entries then simply stop matching and
#: recompute.
STORE_SCHEMA_VERSION = 1

#: What the store counts per stage: load outcomes, writes, and the
#: pass manager's hydrations of loaded artifacts.
STAGE_CACHE_OUTCOMES = ("hit", "miss", "corrupt", "store", "hydrate")

_PathLike = Union[str, pathlib.Path]


def _data_sha256(data: Mapping[str, Any]) -> str:
    return hashlib.sha256(stable_json(data).encode("utf-8")).hexdigest()


def record_counts(
    registry: MetricsRegistry, counts: Mapping[str, Mapping[str, int]]
) -> None:
    """Add ``{stage: {outcome: n}}`` to ``registry``'s
    ``stage.cache.<outcome>`` and ``stage.cache.<outcome>.<stage>``
    counters — how a parent folds the counts its workers hand back."""
    for stage, outcomes in counts.items():
        for outcome, n in outcomes.items():
            registry.counter(f"stage.cache.{outcome}").inc(n)
            registry.counter(f"stage.cache.{outcome}.{stage}").inc(n)


def atomic_write_json(
    target: pathlib.Path, entry: Mapping[str, Any], key_hint: str = "entry"
) -> pathlib.Path:
    """Atomically write ``entry`` as indented canonical JSON: stage the
    bytes in a temp file inside the target directory (same filesystem,
    so the final ``os.replace`` is atomic)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, staging = tempfile.mkstemp(
        prefix=f".{key_hint[:16]}.", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(stable_json(entry, indent=2) + "\n")
        os.replace(staging, target)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return target


class ArtifactStore:
    """Content-addressed store of compile artifacts, one JSON file per
    (stage, key), safe for concurrent readers and writers.

    Instances are pickle-friendly (they carry only the directory path),
    so sweep and service pool workers can take one across a fork/spawn;
    each process talks to its own registry.  :attr:`counts` tallies
    what this instance counted, so a worker can hand one item's counts
    back to its parent (:func:`record_counts`).
    """

    def __init__(
        self,
        directory: _PathLike,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self._registry = registry
        #: ``{stage: {outcome: count}}``
        self.counts: Dict[str, Dict[str, int]] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {"directory": self.directory}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.directory = state["directory"]
        self._registry = None
        self.counts = {}

    @property
    def registry(self) -> MetricsRegistry:
        """Where the counters land (the bound registry, or the
        process-wide default when none was given)."""
        return self._registry if self._registry is not None else default_registry()

    def count(self, outcome: str, stage: str) -> None:
        """Count one ``outcome`` for ``stage`` in :attr:`counts` and in
        the registry."""
        per_stage = self.counts.setdefault(stage, {})
        per_stage[outcome] = per_stage.get(outcome, 0) + 1
        record_counts(self.registry, {stage: {outcome: 1}})

    def path_for(self, stage: str, key: str) -> pathlib.Path:
        """The on-disk entry for one (stage, key)."""
        return self.directory / stage / f"{key}.json"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, stage: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored artifact for ``(stage, key)`` as a
        ``{"fingerprint", "data"}`` dict, or ``None`` on miss.

        A corrupt entry — malformed JSON, wrong embedded stage/key or
        schema version, data-hash mismatch — is treated as a miss,
        counted as ``corrupt``, and deleted so the next store rewrites
        it cleanly.
        """
        path = self.path_for(stage, key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.count("miss", stage)
            return None
        entry = self._decode(text, stage, key)
        if entry is None:
            self.count("corrupt", stage)
            self.count("miss", stage)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.count("hit", stage)
        return {"fingerprint": entry["fingerprint"], "data": entry["data"]}

    def _decode(
        self, text: str, stage: str, key: str
    ) -> Optional[Dict[str, Any]]:
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(entry, dict):
            return None
        # An older entry is stale; a newer one was written by a later
        # build whose layout this reader cannot interpret.  Both are
        # rejected before the data is touched.
        schema = entry.get("store_schema")
        if not isinstance(schema, int) or schema != STORE_SCHEMA_VERSION:
            return None
        if entry.get("stage") != stage or entry.get("key") != key:
            return None
        data = entry.get("data")
        fingerprint = entry.get("fingerprint")
        if not isinstance(data, dict) or not isinstance(fingerprint, str):
            return None
        if entry.get("data_sha256") != _data_sha256(data):
            return None
        return entry

    def store(
        self,
        stage: str,
        key: str,
        fingerprint: str,
        data: Mapping[str, Any],
    ) -> pathlib.Path:
        """Atomically persist one artifact under its key."""
        entry = {
            "store_schema": STORE_SCHEMA_VERSION,
            "stage": stage,
            "key": key,
            "fingerprint": fingerprint,
            "data": dict(data),
            "data_sha256": _data_sha256(data),
        }
        target = atomic_write_json(
            self.path_for(stage, key), entry, key_hint=key
        )
        self.count("store", stage)
        return target

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, stage_key) -> bool:
        stage, key = stage_key
        return self.path_for(stage, key).is_file()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(
            1
            for stage_dir in self.directory.iterdir()
            if stage_dir.is_dir()
            for path in stage_dir.iterdir()
            if path.suffix == ".json"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.directory)!r})"
