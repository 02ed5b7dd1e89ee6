"""Command-line interface: ``python -m repro <command> <loop-file>``.

Commands
--------

``schedule``  compile a loop file and print the derived time-optimal
              schedule (optionally for an ``--stages N`` clean
              pipeline);
``analyze``   print the loop's dependence classification, critical
              cycles, rates and detection statistics;
``storage``   print the Section 6 storage optimisation and the
              buffer-balancing result;
``dot``       emit Graphviz DOT for the dataflow graph or the SDSP-PN;
``trace``     record the behavior-graph simulation as a structured
              trace (Chrome/Perfetto or JSONL);
``explain``   causal blame: rebuild the enabling DAG of a run, report
              the observed critical path (checked against the
              structural critical cycles), the per-transition
              wait-state decomposition and the blame chain
              (``--json`` for machine output, ``--trace`` for a
              Chrome trace with flow arrows);
``dash``      write the self-contained HTML bottleneck-attribution
              dashboard (kernel timeline, slack/utilization, token
              occupancy, ledger trends);
``sweep``     batch-compile a JSON manifest of loops through the
              content-addressed artifact store, optionally over a
              process pool (``--workers N``), and merge the
              deterministic payloads in manifest order; ``--trace``
              writes a merged cross-process span trace (one lane per
              worker), ``--metrics-out`` an OpenMetrics exposition,
              and a live progress line renders on TTYs
              (``--no-progress`` to suppress);
``compile``   compile one loop and print its deterministic JSON
              payload (optionally through the artifact store) — the
              exact bytes ``repro serve`` answers ``POST /v1/compile``
              with for the same input;
``serve``     run the async HTTP compilation service (bounded
              admission, process-pool workers, OpenMetrics, graceful
              drain; see ``docs/SERVICE.md`` and ``docs/API.md``);
``metrics``   render a ledger record's timing data as OpenMetrics
              text exposition;
``bench-check``  compare ``benchmarks/results/*.json`` against the
              committed baseline and exit non-zero on regressions.

Every command accepts ``--profile``, which prints a per-stage
wall-clock table after the normal output; loop commands also accept
``--ledger [DIR]`` to append a normalized run record to the append-only
JSONL ledger (default ``benchmarks/ledger/runs.jsonl``).  Logging is
wired through :func:`repro.obs.logging_setup`; set ``REPRO_LOG=debug``
for verbose diagnostics.

Loop files use the frontend syntax of :mod:`repro.loops.parser`;
loop-invariant scalars are bound with repeated ``--scalar NAME=VALUE``
options.  Exit status is non-zero on any compilation or verification
failure.

The implementation is split by subcommand family —
:mod:`repro.cli.compile` (schedule/analyze/storage/dot/compile),
:mod:`repro.cli.sweep`, :mod:`repro.cli.serve` and
:mod:`repro.cli.obs` (trace/explain/dash/metrics/bench-check) — over
the shared argument plumbing in :mod:`repro.cli._args`.  The public
surface is exactly :func:`main` and :func:`build_parser`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional, Sequence

from ..errors import ReproError
from . import compile as _compile_family
from . import obs as _obs_family
from . import serve as _serve_family
from . import sweep as _sweep_family

__all__ = ["main", "build_parser"]

log = logging.getLogger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Timed Petri-net fine-grain loop scheduling "
            "(Gao, Wong & Ning, PLDI 1991)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # registration order is the `repro --help` listing order; keep it
    # stable across the family modules
    _compile_family.add_schedule_parser(subparsers)
    _compile_family.add_analyze_parser(subparsers)
    _compile_family.add_storage_parser(subparsers)
    _compile_family.add_dot_parser(subparsers)
    _obs_family.add_trace_parser(subparsers)
    _obs_family.add_explain_parser(subparsers)
    _obs_family.add_dash_parser(subparsers)
    _sweep_family.add_sweep_parser(subparsers)
    _compile_family.add_compile_parser(subparsers)
    _serve_family.add_serve_parser(subparsers)
    _obs_family.add_metrics_parser(subparsers)
    _obs_family.add_bench_check_parser(subparsers)
    return parser


_COMMANDS = {
    "schedule": _compile_family.cmd_schedule,
    "analyze": _compile_family.cmd_analyze,
    "storage": _compile_family.cmd_storage,
    "dot": _compile_family.cmd_dot,
    "trace": _obs_family.cmd_trace,
    "explain": _obs_family.cmd_explain,
    "dash": _obs_family.cmd_dash,
    "sweep": _sweep_family.cmd_sweep,
    "compile": _compile_family.cmd_compile,
    "serve": _serve_family.cmd_serve,
    "metrics": _obs_family.cmd_metrics,
    "bench-check": _obs_family.cmd_bench_check,
}


def _print_profile(out) -> None:
    """Render the wall-clock profile from the process-wide metrics
    registry (populated by ``--profile``): the compile breakdown —
    ``stage.<name>`` rows in stage order, then ``compile.unattributed``
    and ``compile.total``, which they sum to — and, apart, every other
    timer (library calls run inside the stages; none is added in)."""
    from ..compiler import split_timers
    from ..obs import default_registry
    from ..report import render_table

    timers = default_registry().dump()["timers"]
    if not timers:
        print(
            "\n--profile: no timings were recorded by this command "
            "(nothing was compiled or simulated)",
            file=out,
        )
        return
    breakdown, library = split_timers(timers)
    for title, block in (
        ("Wall-clock profile: compiler stages", breakdown.items()),
        (
            "Other timers (library calls; not added to the compile total)",
            sorted(library.items(), key=lambda item: -item[1]["total"]),
        ),
    ):
        rows = [
            [name, t["count"], f"{t['total']:.6f}", f"{t['mean']:.6f}"]
            for name, t in block
        ]
        if rows:
            table = render_table(
                ["timer", "calls", "total s", "mean s"], rows, title=title
            )
            print(f"\n{table}", file=out)


def _append_ledger_record(args: argparse.Namespace, argv, out) -> None:
    """Append the normalized run record requested with ``--ledger``."""
    import pathlib

    from ..obs import default_registry
    from ..obs.ledger import (
        RUNS_FILE,
        append_record,
        default_ledger_dir,
        make_run_record,
    )

    payload = getattr(args, "ledger_payload", None)
    if payload is None:
        return
    directory = (
        default_ledger_dir()
        if args.ledger == "auto"
        else pathlib.Path(args.ledger)
    )
    snapshot = default_registry().dump()
    record = make_run_record(
        kind="cli",
        name=f"{args.command}:{payload['loop']}",
        payload=payload,
        command=list(argv) if argv is not None else sys.argv[1:],
        phase_wall_clock=snapshot["timers"],
        metrics=snapshot["counters"],
        blame=getattr(args, "ledger_blame", None),
    )
    path = append_record(directory / RUNS_FILE, record)
    print(f"appended run record to {path}", file=out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit status."""
    from ..obs import default_registry, logging_setup

    logging_setup()
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    profiling = getattr(args, "profile", False)
    # --ledger wants stage timings in its record and --metrics-out
    # wants counters/timers in its exposition, so both enable the
    # registry exactly like --profile (without printing the table)
    collecting = (
        profiling
        or getattr(args, "ledger", None) is not None
        or getattr(args, "metrics_out", None) is not None
    )
    if collecting:
        registry = default_registry()
        registry.reset()
        registry.enable()
    try:
        status = _COMMANDS[args.command](args, out)
        if status == 0 and getattr(args, "ledger", None) is not None:
            _append_ledger_record(args, argv, out)
        if profiling:
            _print_profile(out)
        return status
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the pipe; not an error
        try:
            sys.stdout.close()
        except Exception as error:
            log.debug("suppressed error while closing stdout: %s", error)
        return 0
    except FileNotFoundError as error:
        # raised for a missing input loop file or an unwritable/missing
        # output directory alike — the errno message names the path
        log.warning("file not found: %s", error)
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        from ..compiler import failing_stage

        log.warning("%s failed: %s", args.command, error)
        print(f"error: {error}", file=sys.stderr)
        stage = failing_stage(error)
        if stage is not None:
            print(f"failing stage: {stage}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            default_registry().disable()
