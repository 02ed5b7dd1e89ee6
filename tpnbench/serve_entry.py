"""``repro`` CLI entry for the traced serve-mix server.

Behaves exactly like ``python -m repro ARGS``, except that the server
process records spans around ``CompileCache.load`` / ``.store`` and
every ``stable_json`` binding of the batch, compiler and service
modules, and writes them as JSON lines to ``$TPNBENCH_SPANS_OUT`` when
the command returns (after the SIGTERM drain).

Everything runs under the ``__main__`` guard: the spawned pool worker
re-imports this file as ``__mp_main__`` and must get no side effects.
"""

if __name__ == "__main__":
    import importlib
    import os
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

    from tracing import STABLE_JSON_BINDERS, Patches, Recorder, patch_stable_json, write_span_lines

    for name in STABLE_JSON_BINDERS:
        importlib.import_module(name)
    from repro.batch.cache import CompileCache
    from repro.cli import main

    recorder = Recorder(worker="serve-wrapper")
    patches = Patches(recorder)
    patches.wrap(CompileCache, "load", "batch.cache.load")
    patches.wrap(CompileCache, "store", "batch.cache.store")
    patch_stable_json(patches)
    status = main(sys.argv[1:])
    write_span_lines(os.environ["TPNBENCH_SPANS_OUT"], recorder.spans)
    sys.exit(status)
