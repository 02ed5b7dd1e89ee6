"""The whole-payload view of the artifact store.

A compilation is a pure function of its inputs, and its deterministic
payload (:meth:`repro.pipeline.CompiledLoopSummary.payload`) is a
stable, hashable artifact — the cycle-time core being cached is the
marked-graph periodic-schedule machinery, whose outputs (kernel,
schedule steps, rate as an exact ``p/q``) are canonical by
construction.  So the payload is stored whole, as the
:data:`PAYLOAD_STAGE` entry of the
:class:`~repro.compiler.store.ArtifactStore`, addressed by

    sha256(stable_json({store schema, source, scalars, pipeline_stages,
                        include_io, engine, unroll}))

and a hit is one verified read that resolves no upstream stage.  The
store owns the entry layout, the atomic writes, the verified reads
(a corrupt entry is a counted miss and is removed) and the counters
(``stage.cache.<outcome>.summarize`` for the payload).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
from typing import Any, Dict, Mapping, Optional, Union

from ..compiler.store import STORE_SCHEMA_VERSION, ArtifactStore
from ..obs.ledger import resolve_env_dir
from ..obs.metrics import MetricsRegistry
from ..obs.schema import stable_json

__all__ = [
    "CACHE_ENV_VAR",
    "PAYLOAD_STAGE",
    "cache_key",
    "default_cache_dir",
    "resolve_cache_dir",
    "CompileCache",
]

#: Environment toggle: falsy values disable the cache, truthy values
#: select :func:`default_cache_dir`, anything else is an explicit
#: directory (validated writable).  Shares its parser — and therefore
#: its exact truthy/falsy vocabulary — with ``REPRO_LEDGER``.
CACHE_ENV_VAR = "REPRO_CACHE"

#: The stage whose store entry holds the whole payload (what
#: ``summarize`` assembles), keyed by :func:`cache_key`.
PAYLOAD_STAGE = "summarize"

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
    plus the store schema version.

    ``unroll`` enters the key as requested — ``"auto"`` and the factor
    it happens to resolve to are distinct addresses, because the
    resolution depends on the analysis, not only on the inputs hashed
    here."""
    canonical = stable_json(
        {
            "store_schema": STORE_SCHEMA_VERSION,
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


class CompileCache:
    """Whole payloads in an :class:`~repro.compiler.store.ArtifactStore`
    (:attr:`artifacts`, where the staged compiler keeps its stage
    artifacts too), loaded and stored by :func:`cache_key`.

    Pickle-friendly through the store, so sweep workers can carry one
    into a ``ProcessPoolExecutor``; each process talks to its own
    registry.
    """

    def __init__(
        self,
        directory: _PathLike,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.artifacts = ArtifactStore(directory, registry=registry)

    @property
    def directory(self) -> pathlib.Path:
        """The store's root directory."""
        return self.artifacts.directory

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss (a
        corrupt entry is a counted miss, and is removed)."""
        entry = self.artifacts.load(PAYLOAD_STAGE, key)
        return None if entry is None else entry["data"]

    def store(self, key: str, payload: Mapping[str, Any]) -> pathlib.Path:
        """Atomically persist ``payload`` under ``key``.  No stage is
        keyed on the payload's fingerprint, so the entry records its
        own address there."""
        return self.artifacts.store(PAYLOAD_STAGE, key, key, payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompileCache({str(self.directory)!r})"
