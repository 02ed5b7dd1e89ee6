"""The compile/schedule command family: ``schedule``, ``analyze``,
``storage``, ``dot`` and ``compile`` — everything that turns one loop
file into printed analysis or a deterministic payload."""

from __future__ import annotations

import argparse

from ..errors import ReproError
from ._args import (
    add_common,
    add_unroll,
    compile_from_args,
    ledger_facts,
    parse_scalars,
    resolve_cli_cache_dir,
)


def add_schedule_parser(subparsers) -> None:
    schedule = subparsers.add_parser(
        "schedule", help="derive and print the time-optimal schedule"
    )
    add_common(schedule)
    schedule.add_argument(
        "--stages",
        type=int,
        default=None,
        metavar="N",
        help="also schedule for an N-stage single clean pipeline",
    )
    add_unroll(schedule)


def add_analyze_parser(subparsers) -> None:
    analyze = subparsers.add_parser(
        "analyze", help="dependences, critical cycles, rates, detection"
    )
    add_common(analyze)


def add_storage_parser(subparsers) -> None:
    storage = subparsers.add_parser(
        "storage", help="storage optimisation and buffer balancing"
    )
    add_common(storage)


def add_dot_parser(subparsers) -> None:
    dot = subparsers.add_parser("dot", help="emit Graphviz DOT")
    add_common(dot)
    dot.add_argument(
        "--what",
        choices=["dataflow", "net"],
        default="dataflow",
        help="which graph to emit",
    )


def add_compile_parser(subparsers) -> None:
    compile_cmd = subparsers.add_parser(
        "compile",
        help="print the deterministic compiled-loop payload as JSON",
    )
    add_common(compile_cmd)
    compile_cmd.add_argument(
        "--stages",
        type=int,
        default=None,
        metavar="N",
        help="compile for an N-stage single clean pipeline",
    )
    add_unroll(compile_cmd)
    compile_cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "compile-cache directory (default: the REPRO_CACHE "
            "environment toggle; unset/falsy means no cache)"
        ),
    )
    compile_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="compile from scratch, ignoring REPRO_CACHE",
    )
    compile_cmd.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the payload to FILE instead of stdout",
    )


def cmd_schedule(args: argparse.Namespace, out) -> int:
    from ..report import render_schedule

    result = compile_from_args(args, stages=args.stages)
    print(render_schedule(result.schedule), file=out)
    print(
        f"\noptimal rate {result.optimal_rate}; frustum found at step "
        f"{result.frustum.repeat_time} (n = {result.pn.size})",
        file=out,
    )
    if result.unroll > 1:
        print(
            f"unrolled x{result.unroll}: per-instruction rate "
            f"{result.achieved_rate} (dependence bound "
            f"{result.dependence_bound})",
            file=out,
        )
    if result.scp_schedule is not None:
        print(
            f"\n--- {args.stages}-stage clean pipeline ---", file=out
        )
        print(render_schedule(result.scp_schedule), file=out)
        print(f"pipeline utilisation {result.scp_utilization}", file=out)
    return 0


def cmd_analyze(args: argparse.Namespace, out) -> int:
    from ..core import CRITICAL_CYCLE_BUDGET, critical_cycles

    result = compile_from_args(args)
    info = result.translation.info
    print(f"loop {result.translation.loop.name!r}:", file=out)
    print(
        f"  classification : "
        f"{'DOALL (no loop-carried dependence)' if info.is_doall else 'loop-carried'}",
        file=out,
    )
    for dependence in info.dependences:
        kind = "carried" if dependence.loop_carried else "intra"
        print(
            f"    {dependence.producer} -> {dependence.consumer} "
            f"({kind}, distance {dependence.distance})",
            file=out,
        )
    report = critical_cycles(result.pn)
    print(
        f"  cycle time     : {report.cycle_time} "
        f"(rate {report.computation_rate})",
        file=out,
    )
    for cycle in report.critical_cycles:
        print("    critical: " + " -> ".join(cycle.transitions), file=out)
    if report.capped:
        print(
            f"    (listing capped at {CRITICAL_CYCLE_BUDGET} critical cycles)",
            file=out,
        )
    bounds = result.bounds
    print(
        f"  frustum        : found at step {result.frustum.repeat_time}, "
        f"period {result.frustum.length} "
        f"(theory bound O(n^{4 if bounds.case == 'single' else 3}) = "
        f"{bounds.step_bound})",
        file=out,
    )
    return 0


def cmd_storage(args: argparse.Namespace, out) -> int:
    from ..core import balance_buffers, optimize_storage, verify_allocation

    result = compile_from_args(args)
    allocation = optimize_storage(result.pn)
    print(
        f"storage locations: {allocation.baseline_locations} -> "
        f"{allocation.locations} (saved {allocation.savings})",
        file=out,
    )
    for chain in allocation.chains:
        if chain.length > 1:
            path = " -> ".join([chain.head] + [a.target for a in chain.arcs])
            print(f"  merged acknowledgement: {path}", file=out)
    rate = verify_allocation(result.pn, allocation)
    print(f"cycle time preserved at {rate}", file=out)

    balance = balance_buffers(result.pn)
    print(
        f"\nbuffer balancing for period {balance.target_period}: "
        f"{balance.total} total slots over {len(balance.capacities)} arcs",
        file=out,
    )
    for identifier, capacity in sorted(balance.capacities.items()):
        if capacity > 1:
            print(f"  {identifier}: {capacity} slots", file=out)
    return 0


def cmd_dot(args: argparse.Namespace, out) -> int:
    from ..report.dot import dataflow_to_dot, petri_net_to_dot

    result = compile_from_args(args)
    if args.what == "dataflow":
        print(dataflow_to_dot(result.translation.graph), file=out)
    else:
        print(
            petri_net_to_dot(
                result.pn.net, result.pn.initial, result.pn.durations
            ),
            file=out,
        )
    return 0


def cmd_compile(args: argparse.Namespace, out) -> int:
    """Compile one loop and print the deterministic payload — the
    exact bytes ``POST /v1/compile`` serves for the same input (the
    golden test diffs the two)."""
    import pathlib

    from ..batch import SweepItem, compile_one
    from ..obs import stable_json

    cache_dir = resolve_cli_cache_dir(args)
    with open(args.loop_file) as handle:
        source = handle.read()
    item = SweepItem(
        name=pathlib.Path(args.loop_file).stem,
        source=source,
        scalars=parse_scalars(args.scalar) or None,
        pipeline_stages=args.stages,
        include_io=not args.abstract,
        engine=args.engine,
        unroll=args.unroll,
    )
    result = compile_one(item, cache_dir=cache_dir)
    if not result.ok:
        from ..compiler import mark_stage

        error = ReproError(
            f"{result.error['type']}: {result.error['message']}"
        )
        stage = result.error.get("stage")
        if stage:
            mark_stage(error, stage)
        raise error
    payload = result.payload
    text = stable_json(payload, indent=2) + "\n"
    if args.output is not None:
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote compiled payload to {args.output}", file=out)
    else:
        out.write(text)
    if args.ledger is not None:
        args.ledger_payload = ledger_facts(payload)
    return 0
