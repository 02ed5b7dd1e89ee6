"""Cold start: what a fresh process pays before its first compile.

Every CLI run, sweep worker and serve pool worker is a fresh
interpreter, while a compile of a paper loop takes milliseconds (the
repeated instantaneous state appears within about 2n time steps, §5).
The compile path therefore imports no numpy, scipy or networkx and no
repro module it does not run (docs/ARCHITECTURE.md, "Cold start";
pinned by ``tests/test_coldstart.py``).

Each probe runs in a fresh interpreter with ``src`` on the path.  The
``kind="coldstart"`` record's payload, which ``repro bench-check``
gates strictly, lists for ``import repro.pipeline`` and for a CLI
compile the top-level packages the probe loads beyond the standard
library and the interpreter's own start-up; it reads ``["repro"]``,
and the gate fails hard if numpy, scipy or networkx come back.  The
volatile ``timing`` section records the median import wall time over
five interpreters, the ``-X importtime`` self time of the repro
modules, the wall time of a fresh ``repro compile examples/l2.loop
--no-cache``, and the time a spawned serve pool worker takes to answer
its pre-warm task.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import pytest

from benchmarks.conftest import save_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIBRARIES = ("networkx", "numpy", "scipy")
REPEATS = 5

#: A probe runs ``{body}`` in a fresh interpreter and prints the
#: non-stdlib top-level packages it loaded plus its own wall time.
PROBE = """
import sys, time
before = set(sys.modules)
start = time.perf_counter()
{body}
elapsed = time.perf_counter() - start
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
import json
print(json.dumps({{
    # "__mp_main__" is multiprocessing's alias of __main__, not a package
    "packages": sorted(
        name for name in loaded - set(sys.stdlib_module_names)
        if not name.startswith("__")
    ),
    "seconds": elapsed,
}}))
"""

IMPORT = "import repro.pipeline"
CLI_COMPILE = (
    "import io, repro.cli\n"
    "repro.cli.main(['compile', 'examples/l2.loop', '--no-cache'], out=io.StringIO())"
)

PREWARM = """
import multiprocessing, time
from concurrent.futures import ProcessPoolExecutor
from repro.batch.sweep import pool_worker_init
from repro.service.app import _warm_worker
start = time.perf_counter()
with ProcessPoolExecutor(
    max_workers=1,
    mp_context=multiprocessing.get_context("spawn"),
    initializer=pool_worker_init,
    initargs=(None, None),
) as pool:
    pool.submit(_warm_worker).result()
    print(time.perf_counter() - start)
"""


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
        check=True,
    )


def probe(body: str) -> dict:
    return json.loads(python("-c", PROBE.format(body=body)).stdout)


def repro_import_self_seconds() -> float:
    """``-X importtime`` self time summed over the repro modules."""
    stderr = python("-X", "importtime", "-c", IMPORT).stderr
    total_us = 0
    for line in stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[2].strip().partition(".")[0] == "repro":
            total_us += int(fields[0])
    return total_us / 1e6


def cli_compile_seconds() -> float:
    start = time.perf_counter()
    python("-m", "repro", "compile", "examples/l2.loop", "--no-cache")
    return time.perf_counter() - start


def measure() -> dict:
    imports = [probe(IMPORT) for _ in range(REPEATS)]
    return {
        "import_packages": imports[0]["packages"],
        "cli_packages": probe(CLI_COMPILE)["packages"],
        "walls": {
            "import_wall": statistics.median(p["seconds"] for p in imports),
            "import_self_repro": repro_import_self_seconds(),
            "cli_compile_wall": statistics.median(
                cli_compile_seconds() for _ in range(REPEATS)
            ),
            "serve_prewarm": statistics.median(
                float(python("-c", PREWARM).stdout) for _ in range(3)
            ),
        },
    }


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs Python 3.10+"
)
def test_coldstart(benchmark):
    benchmark.group = "cold start"
    run = benchmark.pedantic(measure, rounds=1, iterations=1)
    walls = run["walls"]
    save_json(
        "coldstart.json",
        {
            "bench": "coldstart",
            "import_packages": run["import_packages"],
            "cli_compile_packages": run["cli_packages"],
        },
        phases={
            f"coldstart.{name}": {"count": 1, "total": wall, "mean": wall}
            for name, wall in walls.items()
        },
        kind="coldstart",
    )
    for name, wall in walls.items():
        benchmark.extra_info[f"{name}_s"] = round(wall, 6)
    for packages in (run["import_packages"], run["cli_packages"]):
        assert not set(LIBRARIES) & set(packages), packages
