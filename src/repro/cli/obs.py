"""The observability command family: ``trace``, ``explain``, ``dash``,
``metrics`` and ``bench-check`` — tracing, causal blame, the HTML
dashboard, OpenMetrics rendering and the benchmark regression gate."""

from __future__ import annotations

import argparse
import logging

from ..errors import ReproError
from ._args import add_common, compile_from_args

log = logging.getLogger("repro.cli")


def add_trace_parser(subparsers) -> None:
    trace = subparsers.add_parser(
        "trace",
        help="record the behavior-graph simulation as a structured trace",
    )
    add_common(trace)
    trace.add_argument(
        "--format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help=(
            "chrome: trace-event JSON for chrome://tracing / "
            "ui.perfetto.dev (one track per transition, one slice per "
            "firing); jsonl: one structured event per line"
        ),
    )
    trace.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="output path (default: <loop-file>.trace.<json|jsonl>)",
    )
    trace.add_argument(
        "--stages",
        type=int,
        default=None,
        metavar="N",
        help="trace the SDSP-SCP-PN of an N-stage clean pipeline instead",
    )


def add_explain_parser(subparsers) -> None:
    explain = subparsers.add_parser(
        "explain",
        help="causal blame: observed critical path and wait states",
    )
    add_common(explain)
    explain.add_argument(
        "--stages",
        type=int,
        default=None,
        metavar="N",
        help="explain the SDSP-SCP-PN of an N-stage clean pipeline instead",
    )
    explain.add_argument(
        "--periods",
        type=int,
        default=3,
        metavar="K",
        help=(
            "steady-state periods to simulate past the detected frustum "
            "so blame walks stay clear of the transient (default 3)"
        ),
    )
    explain.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full report as JSON instead of text",
    )
    explain.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    explain.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "also write the enabling DAG as a Chrome trace with flow "
            "arrows (one lane per transition, one arrow per consumed "
            "token) to FILE"
        ),
    )
    explain.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the wait-state decomposition in OpenMetrics text "
            "exposition format to FILE ('-' for stdout)"
        ),
    )


def add_dash_parser(subparsers) -> None:
    dash = subparsers.add_parser(
        "dash",
        help="write the self-contained HTML bottleneck dashboard",
    )
    add_common(dash)
    dash.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="output path (default: <loop-file>.dash.html)",
    )
    dash.add_argument(
        "--history",
        default=None,
        metavar="FILE",
        help=(
            "JSONL ledger to read trend history from "
            "(default: benchmarks/ledger/runs.jsonl when present)"
        ),
    )


def add_metrics_parser(subparsers) -> None:
    metrics = subparsers.add_parser(
        "metrics",
        help="render a ledger record's timing data as OpenMetrics text",
    )
    metrics.add_argument(
        "--from-ledger",
        default=None,
        metavar="FILE",
        help=(
            "JSONL ledger to read from "
            "(default: benchmarks/ledger/runs.jsonl)"
        ),
    )
    metrics.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help=(
            "render the latest record with this name "
            "(default: the latest record in the ledger)"
        ),
    )
    metrics.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the exposition to FILE instead of stdout",
    )


def add_bench_check_parser(subparsers) -> None:
    bench_check = subparsers.add_parser(
        "bench-check",
        help="gate benchmarks/results/*.json against the baseline ledger",
    )
    bench_check.add_argument(
        "--results",
        default="benchmarks/results",
        metavar="DIR",
        help="directory of freshly generated bench records",
    )
    bench_check.add_argument(
        "--baseline",
        default="benchmarks/ledger/baseline.jsonl",
        metavar="FILE",
        help="committed baseline records (JSONL)",
    )
    bench_check.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        metavar="X",
        help="relative wall-clock tolerance (default 5.0x baseline)",
    )
    bench_check.add_argument(
        "--wall-floor",
        type=float,
        default=None,
        metavar="SECONDS",
        help="ignore timers whose baseline total is below this (default 0.05)",
    )
    bench_check.add_argument(
        "--wall-hard",
        action="store_true",
        help="treat wall-clock drifts as failures, not just reports",
    )
    bench_check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current results and exit",
    )
    bench_check.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage wall-clock table after the output",
    )


def cmd_trace(args: argparse.Namespace, out) -> int:
    """Record one behavior-graph simulation as a structured trace.

    The loop is compiled normally (so the traced net is exactly what
    ``schedule`` would use); the frustum detection is then re-run with
    the requested sink attached, so the file holds a single clean
    timeline: every firing, every instantaneous state, and the detected
    cyclic frustum.
    """
    from ..machine import FifoRunPlacePolicy
    from ..obs import ChromeTraceSink, Instrumentation, JsonlTraceSink
    from ..petrinet import detect_frustum

    result = compile_from_args(args, stages=args.stages)
    if args.stages is not None and result.scp is not None:
        scp = result.scp
        timed_net, initial = scp.timed, scp.initial
        policy = FifoRunPlacePolicy(scp.net, scp.run_place, scp.priority_order())
        traced = f"SDSP-SCP-PN (l={args.stages})"
    else:
        timed_net, initial = result.pn.timed, result.pn.initial
        policy = None
        traced = "SDSP-PN"

    output = args.output
    if output is None:
        suffix = "json" if args.format == "chrome" else "jsonl"
        output = f"{args.loop_file}.trace.{suffix}"
    sink = (
        ChromeTraceSink(output)
        if args.format == "chrome"
        else JsonlTraceSink(output)
    )
    obs = Instrumentation(sinks=[sink])
    try:
        frustum, behavior = detect_frustum(
            timed_net,
            initial,
            policy,
            instrumentation=obs,
            engine=getattr(args, "engine", "event"),
        )
    finally:
        obs.close()

    print(
        f"traced {traced} of {result.translation.loop.name!r}: "
        f"{len(behavior.steps)} steps, frustum [{frustum.start_time}, "
        f"{frustum.repeat_time}) period {frustum.length}",
        file=out,
    )
    print(f"wrote {args.format} trace to {output}", file=out)
    if args.format == "chrome":
        print(
            "open in chrome://tracing or https://ui.perfetto.dev "
            "(1 trace us = 1 simulator cycle)",
            file=out,
        )
    return 0


def cmd_explain(args: argparse.Namespace, out) -> int:
    """Causal blame for one run: re-simulate with provenance tracing,
    rebuild the enabling DAG, and report the observed critical path,
    the wait-state decomposition and the blame chain."""
    import pathlib

    from ..core.blame import (
        blame_summary,
        explain_compiled,
        wait_metrics_dump,
        write_flow_trace,
    )

    if args.periods < 1:
        raise ReproError(f"--periods must be >= 1, got {args.periods}")
    result = compile_from_args(args, stages=args.stages)
    report = explain_compiled(result, periods=args.periods)

    if args.as_json:
        from ..obs import stable_json

        text = stable_json(report.to_payload(), indent=2) + "\n"
    else:
        text = report.render_text() + "\n"
    if args.output is not None:
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote explain report to {args.output}", file=out)
    else:
        out.write(text)

    if args.trace is not None:
        write_flow_trace(report, args.trace)
        print(
            f"wrote flow trace to {args.trace} (open in chrome://tracing "
            "or https://ui.perfetto.dev; 1 trace us = 1 simulator cycle)",
            file=out,
        )
    if args.metrics_out is not None:
        from ..obs import render_openmetrics

        exposition = render_openmetrics(wait_metrics_dump(report))
        if args.metrics_out == "-":
            out.write(exposition)
        else:
            pathlib.Path(args.metrics_out).write_text(
                exposition, encoding="utf-8"
            )
            print(
                f"wrote OpenMetrics exposition to {args.metrics_out}",
                file=out,
            )
    if getattr(args, "ledger", None) is not None:
        args.ledger_blame = blame_summary(report)
    return 0


def cmd_dash(args: argparse.Namespace, out) -> int:
    """Compile the loop and write the bottleneck-attribution dashboard
    as one self-contained HTML file."""
    import pathlib

    from ..core.attribution import attribute_bottlenecks, place_occupancy
    from ..errors import LedgerError
    from ..obs.ledger import (
        RUNS_FILE,
        default_ledger_dir,
        git_sha,
        load_records,
    )
    from ..report.dash import render_dash

    result = compile_from_args(args)
    attribution = attribute_bottlenecks(result.pn, result.frustum)
    occupancy = place_occupancy(result.behavior, result.frustum)
    loop_name = result.translation.loop.name

    history_path = (
        pathlib.Path(args.history)
        if args.history
        else default_ledger_dir() / RUNS_FILE
    )
    # A missing, empty, or unreadable ledger must never block the
    # dashboard — trends degrade to the placeholder panel instead.
    history = []
    sweep_history = []
    if history_path.is_file():
        try:
            records = load_records(history_path)
            history = [
                record
                for record in records
                if record.get("payload", {}).get("loop") == loop_name
            ]
            sweep_history = [
                record for record in records if record.get("kind") == "sweep"
            ]
        except LedgerError as error:
            log.warning("ignoring unreadable ledger history: %s", error)
            print(
                f"warning: ignoring unreadable ledger history ({error})",
                file=out,
            )
            history = []
            sweep_history = []

    document = render_dash(
        loop_name=loop_name,
        attribution=attribution,
        schedule=result.schedule,
        durations=result.pn.durations,
        occupancy=occupancy,
        history=history,
        sweep_history=sweep_history,
        git_sha=git_sha(),
    )
    output = args.output or f"{args.loop_file}.dash.html"
    pathlib.Path(output).write_text(document, encoding="utf-8")

    bottlenecks = attribution.bottlenecks()
    print(
        f"dashboard for {loop_name!r}: cycle time "
        f"{attribution.cycle_time}, {len(bottlenecks)} bottleneck "
        f"transition(s) on C*: {', '.join(bottlenecks)}",
        file=out,
    )
    print(
        f"wrote self-contained HTML to {output} "
        f"({len(history)} ledger run(s) in trend history)",
        file=out,
    )
    return 0


def cmd_metrics(args: argparse.Namespace, out) -> int:
    """Render one ledger record's timing section as OpenMetrics text —
    the bridge from the append-only ledger to scrape-based tooling."""
    import pathlib

    from ..compiler import stage_ordered_exposition
    from ..obs import dump_from_record
    from ..obs.ledger import RUNS_FILE, default_ledger_dir, load_records

    source = (
        pathlib.Path(args.from_ledger)
        if args.from_ledger is not None
        else default_ledger_dir() / RUNS_FILE
    )
    records = load_records(source)
    if args.name is not None:
        records = [r for r in records if r.get("name") == args.name]
    if not records:
        wanted = f" named {args.name!r}" if args.name is not None else ""
        raise ReproError(f"no ledger record{wanted} in {source}")
    exposition = stage_ordered_exposition(dump_from_record(records[-1]))
    if args.output is not None:
        pathlib.Path(args.output).write_text(exposition, encoding="utf-8")
        print(f"wrote OpenMetrics exposition to {args.output}", file=out)
    else:
        out.write(exposition)
    return 0


def cmd_bench_check(args: argparse.Namespace, out) -> int:
    """The benchmark regression gate (CI's perf check)."""
    import pathlib

    from ..obs.regression import (
        DEFAULT_WALL_FLOOR,
        DEFAULT_WALL_TOLERANCE,
        load_results_records,
        run_gate,
    )
    from ..obs.schema import stable_json

    if args.update_baseline:
        records = load_results_records(args.results)
        baseline = pathlib.Path(args.baseline)
        baseline.parent.mkdir(parents=True, exist_ok=True)
        baseline.write_text(
            "".join(
                stable_json(records[name]) + "\n" for name in sorted(records)
            ),
            encoding="utf-8",
        )
        print(
            f"wrote {len(records)} baseline record(s) to {baseline}",
            file=out,
        )
        return 0

    report = run_gate(
        args.results,
        args.baseline,
        wall_tolerance=(
            args.wall_tolerance
            if args.wall_tolerance is not None
            else DEFAULT_WALL_TOLERANCE
        ),
        wall_floor=(
            args.wall_floor
            if args.wall_floor is not None
            else DEFAULT_WALL_FLOOR
        ),
    )
    print(report.render(), file=out)
    return 1 if report.failed(wall_hard=args.wall_hard) else 0
