"""The benchmark seams: program names that tpnbench (``tpnbench/``) calls
or wraps with no fallback.

tpnbench times the program from outside.  A name it wraps through
``Patches.wrap`` may vanish (that per-layer metric then reads 0), but
the names below are imported or looked up directly, so renaming or
deleting one crashes a benchmark run.  Each failure message names the
tpnbench file that needs the name.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from tests.conftest import L1_SOURCE

#: (tpnbench file, module, attribute path or "" for the module itself)
SEAMS = [
    ("load.py", "repro.obs", "stable_json"),
    ("load.py", "repro.compiler.stages", "STAGES"),
    ("load.py", "repro.compiler", "make_request"),
    ("load.py", "repro.compiler", "CORE_STAGE_ORDER"),
    ("load.py", "repro.compiler", "SCP_STAGE_ORDER"),
    ("load.py", "repro.compiler", "PassManager.artifact"),
    ("load.py", "repro.compiler", "PassManager.data"),
    ("load.py", "repro.pipeline", "compile_loop"),
    ("load.py", "repro.pipeline", "CompiledLoop.summary"),
    ("load.py", "repro.pipeline", "CompiledLoopSummary.payload"),
    ("load.py", "repro.batch.cache", "CompileCache"),
    ("load.py", "repro.compiler.store", "ArtifactStore"),
    ("load.py", "repro.batch.sweep", "compile_many"),
    ("load.py", "repro.batch.sweep", "SweepResult.cache_stats"),
    ("load.py", "repro.batch.sweep", "SweepResult.stage_cache_stats"),
    ("load.py", "repro.cli", ""),
    ("load.py", "repro.service.http", ""),
    ("segment.py", "repro.pipeline", ""),
    ("segment.py", "repro.batch.sweep", ""),
    ("serve_entry.py", "repro.batch.cache", "CompileCache"),
    ("serve_entry.py", "repro.cli", "main"),
    # tracing.STABLE_JSON_BINDERS, each imported by serve_entry.py
    ("serve_entry.py", "repro.batch.cache", ""),
    ("serve_entry.py", "repro.compiler.store", ""),
    ("serve_entry.py", "repro.compiler.manager", ""),
    ("serve_entry.py", "repro.compiler.artifacts", ""),
    ("serve_entry.py", "repro.service.app", ""),
]


@pytest.mark.parametrize(
    "owner, module, path",
    SEAMS,
    ids=[f"{o}:{m}:{p}" for o, m, p in SEAMS],
)
def test_seam_resolves(owner, module, path):
    needed = f"{module}.{path}" if path else module
    try:
        target = importlib.import_module(module)
        for part in filter(None, path.split(".")):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        pytest.fail(f"tpnbench/{owner} needs {needed}: {error}")


def test_stages_are_replaceable_dataclasses():
    from repro.compiler.stages import STAGES

    for name, stage in STAGES.items():
        assert dataclasses.is_dataclass(stage) and hasattr(stage, "compute"), (
            f"tpnbench/load.py calls dataclasses.replace(stage, compute=...) "
            f"on STAGES[{name!r}]"
        )


def test_pass_manager_looks_stages_up_on_every_resolution(monkeypatch):
    from repro.compiler import PassManager, make_request
    from repro.compiler.stages import STAGES

    manager = PassManager(make_request(L1_SOURCE, include_io=False))
    seen = []
    original = STAGES["parse"]

    def compute(ctx):
        seen.append("parse")
        return original.compute(ctx)

    # replaced after the manager exists: tpnbench/load.py patches the
    # registry around a pass, so the manager must not cache stages
    monkeypatch.setitem(
        STAGES, "parse", dataclasses.replace(original, compute=compute)
    )
    manager.artifact("parse")
    assert seen == ["parse"], (
        "tpnbench/load.py wraps STAGES[name].compute; PassManager must "
        "look STAGES[name] up each time it resolves a stage"
    )


def test_pass_manager_resolves_stage_by_stage_without_run():
    from repro.compiler import CORE_STAGE_ORDER, PassManager, make_request

    # tpnbench/load.py drives compile-cold's traced pass this way
    manager = PassManager(make_request(L1_SOURCE, include_io=False))
    for stage in list(CORE_STAGE_ORDER) + ["verify", "summarize"]:
        manager.artifact(stage)
    assert manager.data("summarize")["payload"]["loop"] == "L1"


def test_serve_command_line_parses():
    from repro.cli import build_parser

    argv = [
        "serve", "--port", "0", "--workers", "1", "--drain-grace", "30",
        "--cache-dir", "cache", "--span-dir", "spans",
    ]
    try:
        build_parser().parse_args(argv)
    except SystemExit:  # pragma: no cover - the failure path
        pytest.fail(f"tpnbench/load.py launches `repro {' '.join(argv)}`")
