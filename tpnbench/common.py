"""Shared helpers of the benchmark: the drift probe, summary statistics,
payload digests, the recorded answers and the program-process
environment.

Nothing here imports the program under test, so the orchestrator, the
serve-mix client and the benchmark's own tests can use it without
paying for (or depending on) ``import repro``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import pathlib
import statistics
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
ANSWERS = HERE / "answers.json"

#: Iterations of the drift probe, about 1.3 ms on a 2-vCPU cloud VM
#: (Python 3.11).  Fixed for good: the reference time below is tied to it.
PROBE_ITERATIONS = 12000

#: The probe time that normalised metrics are scaled to.  A normalised
#: metric reads as the raw one would on a host where the probe takes
#: exactly this long, so normalised and raw values share their units.
PROBE_REF_MS = 1.3

#: How much more than the probe the workloads slow down when the host
#: does: durations are scaled by (reference / probe) to this power.  The
#: slope of log speed on log probe time, with the program and the probe
#: on one CPU, measured 1.2-1.7 for compile-cold (within and across runs)
#: and 1.3-1.5 for served requests: the probe touches less memory than
#: the compiler, and host drift here is contention for caches and memory.
PROBE_EXPONENT = 1.3

#: At most one probe per this many seconds, so probing costs a few
#: percent of a run at most.
PROBE_EVERY_S = 0.05

#: Percentiles the tail helper may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A tail percentile is only reported when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

#: Program-process environment variables that would redirect caches,
#: ledgers or logging; the benchmark clears them.
CLEARED_ENV = ("REPRO_CACHE", "REPRO_LEDGER", "REPRO_LOG")


# ----------------------------------------------------------------------
# The drift probe
# ----------------------------------------------------------------------
def probe(iterations: int = PROBE_ITERATIONS) -> int:
    """A fixed pure-Python loop over small ints.

    It allocates no GC-tracked object (ints and range iterators are not
    tracked) and touches no memory beyond a few words, so neither a
    program that grows its heap (collections) nor one that churns the
    caches can slow the probe and hide its own slowdown.
    """
    x = 0
    for i in range(iterations):
        x = (x * 31 + i) & 0xFFFF
    return x


class DriftProbe:
    """Probe samples (ms) taken between operations."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = 0.0

    def between_operations(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            start = time.perf_counter()
            probe()
            self._last = time.perf_counter()
            self.samples.append((self._last - start) * 1e3)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Iterable[float]) -> Tuple[float, str]:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    :data:`TAIL_MIN_BEYOND` samples strictly beyond it, as ``(value,
    name)``.  With too few samples for any of them, the maximum."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("tail of an empty sample")
    best: Optional[Tuple[float, str]] = None
    for pct in TAIL_LADDER:
        value = percentile(ordered, pct)
        beyond = len(ordered) - bisect.bisect_right(ordered, value)
        if beyond >= TAIL_MIN_BEYOND:
            best = (value, f"p{pct:g}")
    return best if best is not None else (ordered[-1], "max")


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Answers and digests
# ----------------------------------------------------------------------
def digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def load_answers(path: pathlib.Path = ANSWERS) -> Dict:
    """The recorded answers: loop sources, every pool item with its
    payload digest and recorded cold-compile cost."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def request_body(answers: Mapping, item: Mapping) -> Dict:
    """The compile request for one item, in the manifest / wire schema."""
    loop = answers["loops"][item["loop"]]
    body = {
        "name": item["id"],
        "source": loop["source"],
        "include_io": item["include_io"],
        "engine": item["engine"],
        "unroll": item["unroll"],
    }
    if loop.get("scalars"):
        body["scalars"] = loop["scalars"]
    if item["pipeline_stages"] is not None:
        body["pipeline_stages"] = item["pipeline_stages"]
    return body


class Checker:
    """Counts operations and failures; a failure never stops the run."""

    def __init__(self, expected: Mapping[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def check_body(self, item_id: str, body: bytes) -> bool:
        """Count one operation whose output is ``body``; it fails unless
        the body's digest is the recorded one."""
        got = digest(body)
        want = self.expected.get(item_id)
        return self.check(
            got == want, f"{item_id}: payload digest {got[:12]} != {str(want)[:12]}"
        )


# ----------------------------------------------------------------------
# Process environment and memory
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU, so the
    drift probe runs where the program runs (a closed loop keeps one
    process busy at a time).  Without it, a served request and the
    client's probe ran on different CPUs and their speeds correlated at
    0.3-0.8 instead of 0.9."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not allowed
        pass


def program_env(pycache: pathlib.Path) -> Dict[str, str]:
    """Environment for program processes: the checkout's sources first
    on the path, bytecode cached in a directory the benchmark owns, a
    fixed hash seed, and none of the program's own redirections."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (scans ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return sorted(children)


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""
