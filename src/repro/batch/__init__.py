"""Batch compilation: content-addressed caching + process-pool sweeps.

``compile_loop`` is a pure function of ``(source, scalars,
pipeline_stages, include_io, engine)``, and the benchmark/sweep
workloads (the scaling family, the Livermore kernels, the ablations)
recompile the same nets over and over.  This package exploits both
facts:

* :mod:`repro.batch.cache` — a content-addressed on-disk compile cache
  keyed by a canonical hash of the compilation inputs (plus a cache
  schema version), storing the serialized deterministic payload of
  :class:`repro.pipeline.CompiledLoopSummary` and rehydrating it
  without re-simulating.  Entries are written atomically (temp file +
  rename) and verified against an embedded payload hash on load, so a
  torn or corrupted entry is recompiled, never trusted.
* :mod:`repro.batch.manifest` — sweep manifests: JSON files listing
  loops/configs, plus the generated scaling-family manifest.
* :mod:`repro.batch.sweep` — :func:`compile_many` and the ``repro
  sweep`` CLI driver: fan a manifest out over a
  ``ProcessPoolExecutor``, merge results deterministically (manifest
  order, not completion order), isolate per-item failures into
  structured error records, and report cache hit/miss counters through
  the metrics registry and the run ledger.
* :mod:`repro.batch.progress` — the live single-line TTY progress
  display (done/total, ETA, hit rate, stragglers) driven by
  ``compile_many`` through a small dispatch/finish/close protocol.

Quick use::

    from repro.batch import CompileCache, compile_many, scaling_items

    result = compile_many(
        scaling_items(sizes=(4, 8, 16)),
        workers=4,
        cache=CompileCache("/tmp/repro-cache"),
    )
    print(result.cache_stats())          # {'hits': 0, 'misses': 6, ...}
    print(result.merged_payload())       # deterministic, manifest order
"""

from .._lazy import lazy_exports

#: submodule -> the public names it defines; each submodule is imported
#: when one of its names is first read (see :mod:`repro._lazy`)
_EXPORTS = {
    "cache": (
        "CACHE_ENV_VAR", "CACHE_SCHEMA_VERSION", "CompileCache", "cache_key",
        "default_cache_dir", "resolve_cache_dir",
    ),
    "manifest": ("SweepItem", "load_manifest", "scaling_items"),
    "progress": ("StatusLine", "SweepProgress"),
    "sweep": (
        "SweepItemResult", "SweepResult", "compile_item_task", "compile_many",
        "compile_one", "item_result_from_entry",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
