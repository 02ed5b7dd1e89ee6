"""The per-stage artifact store.

This extends the content-addressed design of
:class:`repro.batch.cache.CompileCache` (one verified, atomically
written JSON file per key) from whole compilations down to individual
compiler stages: ``<root>/<stage>/<key>.json``, where ``key`` is the
stage's *request key* — sha256 over (store schema, stage name, stage
code version, upstream artifact fingerprints, stage parameters).

Because downstream keys are derived from upstream **fingerprints**
(see :mod:`repro.compiler.artifacts`), changing a downstream parameter
— the unroll factor, the simulation engine, the SCP depth — leaves
every upstream entry addressable and only the genuinely affected
suffix of the pipeline recomputes.

Integrity rules are the compile cache's, verbatim:

* **atomic writes** via :func:`atomic_write_json`;
* **verified reads** — a load recomputes the embedded data hash and
  checks the stored stage/key/schema; any mismatch counts as a miss,
  bumps ``stage.cache.corrupt``, and removes the entry so the slot
  heals on the next store.

Counters land in the metrics registry under ``stage.cache.{hit,miss,
corrupt,store}`` plus per-stage ``stage.cache.<outcome>.<stage>``
breakdowns — explicit ``counter()`` calls work even while the registry
is disabled, so sweep and service records can report per-stage hit
rates without the profiling machinery switched on.
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
    "stage_store_dir",
]

#: Bump whenever the stage-entry layout or the request-key derivation
#: changes — old entries then simply stop matching and recompute.
STORE_SCHEMA_VERSION = 1

#: The counter suffixes the store emits (mirrors ``batch.cache.*``).
STAGE_CACHE_OUTCOMES = ("hit", "miss", "corrupt", "store")

_PathLike = Union[str, pathlib.Path]


def stage_store_dir(cache_dir: _PathLike) -> pathlib.Path:
    """Where the per-stage artifacts of a compile-cache directory live:
    ``<cache_dir>/stages``, beside the whole-payload entries so one
    ``--cache-dir`` (or ``REPRO_CACHE``) switch controls both tiers."""
    return pathlib.Path(cache_dir) / "stages"


def _data_sha256(data: Mapping[str, Any]) -> str:
    return hashlib.sha256(stable_json(data).encode("utf-8")).hexdigest()


def atomic_write_json(
    target: pathlib.Path, entry: Mapping[str, Any], key_hint: str = "entry"
) -> pathlib.Path:
    """Atomically write ``entry`` as indented canonical JSON.

    The write discipline every content-addressed store in the repo
    shares (:class:`ArtifactStore`, the whole-payload
    :class:`~repro.batch.cache.CompileCache`): stage the bytes in a
    temp file inside the target directory (same filesystem, so the
    final ``os.replace`` is atomic), so a crashed or killed writer can
    never leave a half-written entry behind, and two writers racing on
    the same key both land a complete (identical) file.
    """
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
    """Content-addressed store of per-stage artifacts, one JSON file
    per (stage, request key), safe for concurrent readers and writers.

    Like :class:`~repro.batch.cache.CompileCache`, instances are
    pickle-friendly (they hold only the directory path) so sweep and
    service pool workers can carry one across a fork/spawn; each
    process talks to its own registry.
    """

    def __init__(
        self,
        directory: _PathLike,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self._registry = registry

    def __getstate__(self) -> Dict[str, Any]:
        return {"directory": self.directory}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.directory = state["directory"]
        self._registry = None

    @property
    def registry(self) -> MetricsRegistry:
        """Where stage-cache counters land (the bound registry, or the
        process-wide default when none was given)."""
        return self._registry if self._registry is not None else default_registry()

    def _count(self, outcome: str, stage: str) -> None:
        self.registry.counter(f"stage.cache.{outcome}").inc()
        self.registry.counter(f"stage.cache.{outcome}.{stage}").inc()

    def path_for(self, stage: str, key: str) -> pathlib.Path:
        """The on-disk entry for one (stage, request key)."""
        return self.directory / stage / f"{key}.json"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, stage: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored artifact for ``(stage, key)`` as a
        ``{"fingerprint", "data"}`` dict, or ``None`` on miss.

        A corrupt entry — malformed JSON, wrong embedded stage/key or
        schema version, data-hash mismatch — is treated as a miss,
        counted under ``stage.cache.corrupt``, and deleted so the next
        store rewrites it cleanly.
        """
        path = self.path_for(stage, key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self._count("miss", stage)
            return None
        entry = self._decode(text, stage, key)
        if entry is None:
            self._count("corrupt", stage)
            self._count("miss", stage)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count("hit", stage)
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
        """Atomically persist one stage artifact under its request key."""
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
        self._count("store", stage)
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
