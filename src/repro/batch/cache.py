"""The content-addressed on-disk compile cache.

A compilation is a pure function of its inputs, and its deterministic
payload (:meth:`repro.pipeline.CompiledLoopSummary.payload`) is a
stable, hashable artifact — the cycle-time core being cached is the
marked-graph periodic-schedule machinery, whose outputs (kernel,
schedule steps, rate as an exact ``p/q``) are canonical by
construction.  So the cache maps

    sha256(stable_json({source, scalars, pipeline_stages, include_io,
                        engine, unroll, cache schema version}))

to one JSON file holding the payload plus an embedded payload hash.

Integrity rules:

* **atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``-d into place, so a crashed or killed
  worker can never leave a half-written entry behind, and two workers
  racing on the same key both land a complete (identical) file;
* **verified reads** — a load recomputes the payload hash and checks
  the stored key/schema; any mismatch (truncation, bit rot, a schema
  bump) counts as a miss, bumps the ``batch.cache.corrupt`` counter,
  and the entry is removed so the slot heals on the next store.

Counters (`batch.cache.{hit,miss,corrupt,store}`) always go to the
metrics registry — explicit ``counter()`` calls work even while the
registry is disabled, so sweep records can report hit rates without
the profiling machinery switched on.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Mapping, Optional, Union

from ..compiler.store import atomic_write_json
from ..obs.ledger import resolve_env_dir
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.schema import stable_json

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "cache_key",
    "default_cache_dir",
    "resolve_cache_dir",
    "CompileCache",
]

#: Bump whenever the cached payload layout or the key derivation
#: changes — old entries then simply stop matching and are recompiled.
#: Version 2: ``unroll`` joined the key inputs and the payload gained
#: ``payload_schema``/``unroll``/``achieved_rate``/``dependence_bound``
#: fields, so a warm cache written by a pre-unrolling build misses
#: cleanly instead of answering a ``U = q`` request with a ``U = 1``
#: payload.
CACHE_SCHEMA_VERSION = 2

#: Environment toggle: falsy values disable the cache, truthy values
#: select :func:`default_cache_dir`, anything else is an explicit
#: directory (validated writable).  Shares its parser — and therefore
#: its exact truthy/falsy vocabulary — with ``REPRO_LEDGER``.
CACHE_ENV_VAR = "REPRO_CACHE"

_PathLike = Union[str, pathlib.Path]


def default_cache_dir(root: Optional[_PathLike] = None) -> pathlib.Path:
    """``<root>/.repro-cache`` (root defaults to the cwd)."""
    base = pathlib.Path(root) if root is not None else pathlib.Path.cwd()
    return base / ".repro-cache"


def resolve_cache_dir(
    value: Optional[str] = None,
    root: Optional[_PathLike] = None,
) -> Optional[pathlib.Path]:
    """Resolve the ``REPRO_CACHE`` toggle (``value`` defaults to the
    environment variable) with the shared ledger/cache env parser:
    ``None`` when the cache is off, a directory path when it is on."""
    if value is None:
        value = os.environ.get(CACHE_ENV_VAR)
    return resolve_env_dir(
        value, default=default_cache_dir(root), purpose="compile cache"
    )


def cache_key(
    source: str,
    scalars: Optional[Mapping[str, float]] = None,
    pipeline_stages: Optional[int] = None,
    include_io: bool = True,
    engine: str = "event",
    unroll: Union[int, str] = 1,
) -> str:
    """The content address of one compilation: a sha256 over the
    canonical JSON of every input ``compile_loop`` result depends on,
    plus the cache schema version.

    ``unroll`` enters the key as requested — ``"auto"`` and the factor
    it happens to resolve to are distinct addresses, because the
    resolution depends on the analysis, not only on the inputs hashed
    here."""
    canonical = stable_json(
        {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "source": source,
            "scalars": (
                {str(k): float(v) for k, v in scalars.items()}
                if scalars
                else None
            ),
            "pipeline_stages": pipeline_stages,
            "include_io": bool(include_io),
            "engine": engine,
            "unroll": unroll,
        }
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _payload_sha256(payload: Mapping[str, Any]) -> str:
    return hashlib.sha256(stable_json(payload).encode("utf-8")).hexdigest()


class CompileCache:
    """Content-addressed store of compile payloads, one JSON file per
    key, safe for concurrent readers and writers.

    The class is intentionally pickle-friendly (it holds only the
    directory path), so sweep workers can carry one into a
    ``ProcessPoolExecutor``; each process talks to its own registry.
    """

    def __init__(
        self,
        directory: _PathLike,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self._registry = registry

    # Keep instances picklable: the registry is process-local state and
    # is re-resolved lazily on the other side of a fork/spawn.
    def __getstate__(self) -> Dict[str, Any]:
        return {"directory": self.directory}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.directory = state["directory"]
        self._registry = None

    @property
    def registry(self) -> MetricsRegistry:
        """Where cache counters land (the bound registry, or the
        process-wide default when none was given)."""
        return self._registry if self._registry is not None else default_registry()

    def _count(self, outcome: str) -> None:
        self.registry.counter(f"batch.cache.{outcome}").inc()

    def path_for(self, key: str) -> pathlib.Path:
        """The on-disk entry for ``key`` (one JSON file per entry)."""
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on miss.

        A corrupt entry — malformed JSON, wrong embedded key or schema
        version, payload-hash mismatch — is treated as a miss, counted
        under ``batch.cache.corrupt``, and deleted so the next store
        rewrites it cleanly.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self._count("miss")
            return None
        entry = self._decode(text, key)
        if entry is None:
            self._count("corrupt")
            self._count("miss")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count("hit")
        return entry["payload"]

    def _decode(self, text: str, key: str) -> Optional[Dict[str, Any]]:
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(entry, dict):
            return None
        schema = entry.get("cache_schema")
        # Any mismatch is a miss, but the two directions differ in
        # kind: an *older* entry is stale (recompile and overwrite), a
        # *newer* one was written by a later build whose payload layout
        # this reader cannot interpret — serving it would smuggle
        # fields past `CompiledLoopSummary.from_payload`'s version
        # gate.  Both are rejected here, before the payload is touched.
        if not isinstance(schema, int) or schema != CACHE_SCHEMA_VERSION:
            return None
        if entry.get("key") != key:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        if entry.get("payload_sha256") != _payload_sha256(payload):
            return None
        return entry

    def store(self, key: str, payload: Mapping[str, Any]) -> pathlib.Path:
        """Atomically persist ``payload`` under ``key``.

        The entry is staged in a temp file inside the cache directory
        (same filesystem, so the final ``os.replace`` is atomic); a
        worker dying mid-write leaves only a stray ``.tmp`` file, never
        a truncated entry another worker could read.
        """
        entry = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "payload": dict(payload),
            "payload_sha256": _payload_sha256(payload),
        }
        target = atomic_write_json(self.path_for(key), entry, key_hint=key)
        self._count("store")
        return target

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(
            1
            for path in self.directory.iterdir()
            if path.suffix == ".json"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompileCache({str(self.directory)!r})"
