"""Benchmark entry point: one run of one workload.

    python3 tpnbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout.  Workloads, metrics and
their units are declared in ``BENCHMARK.json``; ``tpnbench/METRICS.md``
defines each one.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones (and the
Chrome trace of the run under ``.bench_build/tpnbench/traces/``).

This process never imports the program.  It prepares the program
environment (``common.program_env``), a scratch directory under
``.bench_build/tpnbench/`` that it removes afterwards, and a bytecode
cache there that persists between runs and is filled by one untimed
launch; then it runs the segments (``load.py``) one after another, each
in a fresh process group that it kills whole if the run overruns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

from common import HERE, ROOT, pin_to_one_cpu, program_env
from load import SEGMENTS, WORKLOADS, aggregate
from tracing import new_id, read_span_lines, write_chrome

#: The whole run, set-up included, must end well inside 180 seconds.
RUN_TIMEOUT = 170


def run_segment(command, env, work, deadline):
    """Spawn one segment; return (seconds to its ``ready`` line, its
    result).  The process group is killed if the deadline passes."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        env=env, cwd=work, start_new_session=True,
    )
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays of a crashed or late segment
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None or ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"segment failed (exit {proc.returncode})")
    return ready_s, json.loads(out.decode("utf-8").strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its segment (finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"tpnbench: no program sources under {ROOT / 'src'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"tpnbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_TIMEOUT
    pin_to_one_cpu()

    base = ROOT / ".bench_build" / "tpnbench"
    work = base / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = program_env(base / "pycache")
    trace_id = new_id()
    segments = []
    try:
        subprocess.run(  # fill the bytecode cache, untimed
            [sys.executable, "-c", f"import {WORKLOADS[args.workload].modules}"],
            env=env, cwd=work, check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        done = 0
        for index in range(SEGMENTS):
            command = [
                sys.executable, str(HERE / "segment.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--segment", str(index), "--start", str(done),
                "--seconds", str(args.seconds / SEGMENTS), "--trace", str(args.trace),
                "--trace-id", trace_id, "--work", str(work),
            ]
            ready_s, result = run_segment(command, env, work, deadline)
            if result["setup_s"] is None:
                result["setup_s"] = ready_s
            done += result["operations"]
            segments.append(result)
        figures = aggregate(args.workload, segments, bool(args.trace))
        if args.trace:
            lanes = {
                name: read_span_lines(path)
                for seg in segments for name, path in seg["lanes"].items()
            }
            trace = write_chrome(
                base / "traces" / f"{args.workload}-seed{args.seed}.trace.json", lanes, trace_id
            )
            print(f"tpnbench: trace written to {trace}", file=sys.stderr)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as error:
        print(f"tpnbench: run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = figures["metrics"]
    metrics = {}
    missing = []
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None:
            value = 0.0
            missing.append(metric["name"])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if missing:
        print(f"tpnbench: not exercised by {args.workload} (reported as 0): "
              + ", ".join(missing), file=sys.stderr)
    attempted = sum(seg["attempted"] for seg in segments)
    failed = sum(seg["failed"] for seg in segments)
    for seg in segments:
        for problem in seg["problems"]:
            print(f"tpnbench: {problem}", file=sys.stderr)
    print(f"tpnbench: tail_ms is {figures['tail_percentile']} of "
          f"{int(measured['bench.samples'])} samples; probe "
          f"{measured['bench.probe_ms']:.4f} ms; raw items_per_s "
          f"{measured['bench.raw_items_per_s']:.3f}, latency_ms "
          f"{measured['bench.raw_latency_ms']:.4f}, tail_ms "
          f"{measured['bench.raw_tail_ms']:.4f}, setup_s "
          f"{measured['bench.raw_setup_s']:.4f}", file=sys.stderr)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
