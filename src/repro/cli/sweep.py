"""The ``sweep`` command: batch-compile a manifest through the artifact
store, merge the deterministic payloads in manifest order, and report
the store's two views: whole-payload hits and misses, and the stage
artifacts a payload miss was rebuilt from."""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from ._args import resolve_cli_cache_dir


def add_sweep_parser(subparsers) -> None:
    sweep = subparsers.add_parser(
        "sweep",
        help="batch-compile a manifest via the compile cache",
    )
    sweep.add_argument(
        "manifest",
        help="JSON sweep manifest (a list of items, or {'items': [...]})",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width (1 = serial, in-process)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "compile-cache directory (default: the REPRO_CACHE "
            "environment toggle; unset/falsy means no cache)"
        ),
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="compile everything from scratch, ignoring REPRO_CACHE",
    )
    sweep.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the merged deterministic payload as indented JSON",
    )
    sweep.add_argument(
        "--require-hits",
        action="store_true",
        help=(
            "exit non-zero unless every item was served from the cache "
            "(CI's warm-cache invariant)"
        ),
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage wall-clock table after the output",
    )
    sweep.add_argument(
        "--ledger",
        nargs="?",
        const="auto",
        default=None,
        metavar="DIR",
        help=(
            "append a 'sweep' run record (merged payload + cache "
            "hit/miss counters) to the JSONL run ledger"
        ),
    )
    sweep.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "span-trace the sweep and write the merged Chrome/Perfetto "
            "trace (one lane per worker) to FILE"
        ),
    )
    sweep.add_argument(
        "--no-progress",
        action="store_true",
        help=(
            "suppress the live progress line (it is auto-disabled when "
            "stderr is not a terminal)"
        ),
    )
    sweep.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the sweep's metrics registry in OpenMetrics text "
            "exposition format to FILE ('-' for stdout)"
        ),
    )


def _stage_cache_note(stage_stats) -> str:
    """One line summarising the stage artifacts over the whole sweep:
    counter totals plus how many stage resolutions each outcome covered
    (``computed`` / ``hit`` / ``hydrated``)."""
    by_stage = stage_stats.get("by_stage") or {}
    resolutions = {}
    for outcomes in by_stage.values():
        for outcome, count in outcomes.items():
            resolutions[outcome] = resolutions.get(outcome, 0) + count
    note = (
        f"stage cache: {stage_stats['hit']} hit(s), "
        f"{stage_stats['miss']} miss(es), {stage_stats['hydrate']} "
        f"hydration(s)"
    )
    if by_stage:
        parts = ", ".join(
            f"{count} {outcome}"
            for outcome, count in sorted(resolutions.items())
        )
        note += f" across {len(by_stage)} stage(s) ({parts})"
    return note


def cmd_sweep(args: argparse.Namespace, out) -> int:
    """Batch-compile a manifest; merge results in manifest order."""
    import pathlib
    import tempfile
    import time

    from ..batch import SweepProgress, compile_many, load_manifest
    from ..obs import stable_json
    from ..report import render_table

    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    cache_dir = resolve_cli_cache_dir(args)

    items = load_manifest(args.manifest)
    tracer = None
    shard_tmp = None
    if args.trace is not None:
        from ..obs import Tracer

        tracer = Tracer(worker="parent")
        if args.workers > 1:
            shard_tmp = tempfile.TemporaryDirectory(prefix="repro-spans-")
    progress = SweepProgress(
        total=len(items),
        enabled=False if args.no_progress else None,
        workers=args.workers,
    )
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(
                "sweep", manifest=str(args.manifest), workers=args.workers
            ):
                result = compile_many(
                    items,
                    workers=args.workers,
                    cache_dir=cache_dir,
                    progress=progress,
                    tracer=tracer,
                    shard_dir=shard_tmp.name if shard_tmp else None,
                )
        else:
            result = compile_many(
                items,
                workers=args.workers,
                cache_dir=cache_dir,
                progress=progress,
            )
        wall = time.perf_counter() - started

        if tracer is not None:
            from ..obs import merge_traces, write_trace

            document = merge_traces(
                result.span_shards, parent=tracer, parent_label="parent"
            )
            write_trace(document, args.trace)
    finally:
        if shard_tmp is not None:
            shard_tmp.cleanup()

    rows = []
    for item in result.items:
        if item.ok:
            payload = item.payload
            rows.append(
                [
                    item.name,
                    "hit" if item.cache_hit else "ok",
                    payload["rate"],
                    payload["initiation_interval"],
                    payload["frustum"]["length"],
                ]
            )
        else:
            status = item.error.get("stage")
            rows.append(
                [
                    item.name,
                    f"ERROR@{status}" if status else "ERROR",
                    item.error["type"],
                    "-",
                    item.error["message"][:40],
                ]
            )
    print(
        render_table(
            ["item", "status", "rate", "II", "frustum len"],
            rows,
            title=f"Sweep of {args.manifest} ({args.workers} worker(s))",
        ),
        file=out,
    )
    stats = result.cache_stats()
    cache_note = (
        f"cache {cache_dir}: {stats['hit']} hit(s), {stats['miss']} "
        f"miss(es), {stats['corrupt']} corrupt"
        if cache_dir is not None
        else "cache off"
    )
    print(
        f"\n{result.n_items} item(s), {result.n_errors} error(s); "
        f"{cache_note}; {wall:.3f}s end to end",
        file=out,
    )
    stage_stats = result.stage_cache_stats()
    if cache_dir is not None and any(
        stage_stats.get(outcome)
        for outcome in ("hit", "miss", "corrupt", "store", "hydrate")
    ):
        print(_stage_cache_note(stage_stats), file=out)

    timing = result.timing_summary()
    if tracer is not None:
        lanes = document["otherData"]["lanes"]
        print(
            f"wrote merged trace ({len(lanes)} lane(s)) to {args.trace}",
            file=out,
        )
        print(_render_timing_summary(timing), file=out)

    merged = result.merged_payload()
    if args.output is not None:
        pathlib.Path(args.output).write_text(
            stable_json(merged, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote merged payload to {args.output}", file=out)

    if args.metrics_out is not None:
        from ..compiler import stage_ordered_exposition
        from ..obs import default_registry

        exposition = stage_ordered_exposition(default_registry())
        if args.metrics_out == "-":
            out.write(exposition)
        else:
            pathlib.Path(args.metrics_out).write_text(
                exposition, encoding="utf-8"
            )
            print(f"wrote OpenMetrics exposition to {args.metrics_out}", file=out)

    if args.ledger is not None:
        path = _append_sweep_record(
            args, merged, stats, wall, timing, stage_stats
        )
        print(f"appended sweep record to {path}", file=out)

    if args.require_hits and result.hit_rate < 1.0:
        # only ok items can be expected to hit: failures are never
        # cached, and hit_rate excludes them for the same reason
        misses = [i.name for i in result.items if i.ok and not i.cache_hit]
        print(
            f"error: --require-hits: {len(misses)} item(s) were not "
            f"served from the cache: {', '.join(misses)}",
            file=sys.stderr,
        )
        # the per-stage breakdown says how much of each missed item's
        # pipeline was still served from the artifact store
        for stage, outcomes in (stage_stats.get("by_stage") or {}).items():
            if outcomes.get("hit"):
                print(
                    f"  stage {stage}: {outcomes['hit']} artifact hit(s)",
                    file=sys.stderr,
                )
        return 1
    return 1 if result.n_errors else 0


def _render_timing_summary(timing) -> str:
    """The post-sweep critical-path block: the lane that bounded the
    wall clock, its slowest items, and per-stage p50/p95 (``~`` marks
    percentiles from an overflowed sample window)."""
    lines = []
    critical = timing.get("critical_path")
    if critical:
        lines.append(
            f"critical path: {critical['worker']} "
            f"({critical['busy_seconds']:.3f}s busy over "
            f"{len(timing.get('lanes', {}))} lane(s))"
        )
        for entry in critical["items"]:
            lines.append(f"  {entry['seconds']:9.3f}s  {entry['name']}")
    stages = timing.get("stages") or {}
    if stages:
        lines.append("stage percentiles (s):")
        for name, stats in stages.items():
            approx = "" if stats.get("exact_percentiles", True) else "~"
            p50 = stats.get("p50")
            p95 = stats.get("p95")
            lines.append(
                f"  {name:<22} n={stats['count']:<5} "
                f"p50={approx}{p50:.6f} p95={approx}{p95:.6f}"
                if p50 is not None and p95 is not None
                else f"  {name:<22} n={stats['count']}"
            )
    return "\n".join(lines)


def _append_sweep_record(
    args: argparse.Namespace,
    merged,
    cache_stats,
    wall: float,
    timing=None,
    stage_stats=None,
):
    """Append the ``sweep`` run record: the deterministic merged
    payload, with the store counters (both views), wall clock and the
    span timing summary quarantined in the volatile ``timing`` section."""
    import pathlib

    from ..obs import default_registry
    from ..obs.ledger import (
        RUNS_FILE,
        append_record,
        default_ledger_dir,
        make_run_record,
    )

    directory = (
        default_ledger_dir()
        if args.ledger == "auto"
        else pathlib.Path(args.ledger)
    )
    snapshot = default_registry().dump()
    metrics = {**snapshot["counters"], "cache": dict(cache_stats)}
    if stage_stats is not None and stage_stats.get("by_stage"):
        metrics["stage_cache"] = dict(stage_stats)
    record = make_run_record(
        kind="sweep",
        name=f"sweep:{pathlib.Path(args.manifest).stem}",
        payload=merged,
        command=sys.argv[1:],
        phase_wall_clock={
            **snapshot["timers"],
            "sweep.total": {"count": 1, "total": wall, "mean": wall},
        },
        metrics=metrics,
        spans=timing,
    )
    return append_record(directory / RUNS_FILE, record)
