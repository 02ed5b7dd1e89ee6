"""The cold-start rule: a compile imports no numpy, scipy or networkx,
and no repro module it does not run.

A child ``python -S`` (no site-packages, so none of the three libraries
can be imported at all) compiles through the library and through the
CLI; its bytes must equal an in-process compile of the same inputs,
and ``import repro.pipeline`` must leave the process-pool, asyncio,
batch, oracle and report modules unloaded.
"""

from __future__ import annotations

import io
import json
import pathlib
import subprocess
import sys

from repro.cli import main
from repro.obs import stable_json
from repro.pipeline import compile_loop

ROOT = pathlib.Path(__file__).resolve().parent.parent
L1 = ROOT / "examples" / "l1.loop"
L2 = ROOT / "examples" / "l2.loop"

#: modules ``import repro.pipeline`` must not load
NOT_ON_THE_COMPILE_PATH = (
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "repro.batch",
    "repro.core.blame",
    "repro.core.storage",
    "repro.petrinet.linprog",
    "repro.loops.livermore",
)

CHILD = """
import io, json, sys
sys.path.insert(0, {src!r})
import repro.pipeline
loaded = [name for name in {forbidden!r} if name in sys.modules]
from repro.cli import main
from repro.obs import stable_json
compiled = repro.pipeline.compile_loop(
    open({l2!r}).read(), unroll=2, pipeline_stages=4, verify=True
)
out = io.StringIO()
status = main(["compile", {l1!r}, "--abstract", "--no-cache"], out=out)
print(json.dumps({{
    "loaded": loaded,
    "compile": stable_json(compiled.summary().payload(), indent=2),
    "cli": out.getvalue(),
    "status": status,
}}))
"""


def run_child() -> dict:
    code = CHILD.format(
        src=str(ROOT / "src"),
        forbidden=NOT_ON_THE_COMPILE_PATH,
        l1=str(L1),
        l2=str(L2),
    )
    # -S: no site-packages; -E: no PYTHONPATH pointing back at them
    proc = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_compile_runs_without_site_packages_and_matches_in_process():
    child = run_child()
    assert child["loaded"] == [], (
        f"import repro.pipeline loaded {child['loaded']}"
    )

    compiled = compile_loop(
        L2.read_text(), unroll=2, pipeline_stages=4, verify=True
    )
    assert child["compile"] == stable_json(
        compiled.summary().payload(), indent=2
    )

    out = io.StringIO()
    status = main(["compile", str(L1), "--abstract", "--no-cache"], out=out)
    assert (child["status"], child["cli"]) == (status, out.getvalue())
    assert status == 0
