"""Shared argument plumbing for the CLI subcommand families.

Every subcommand module registers its parsers through
:func:`add_common` / :func:`add_unroll` and compiles through
:func:`compile_from_args`, so flags, defaults and help text stay
identical across commands (and across the split modules) by
construction.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Mapping, Optional, Sequence

from ..errors import ReproError


def add_common(sub: argparse.ArgumentParser) -> None:
    """The flags every loop-taking command shares."""
    sub.add_argument("loop_file", help="file containing one loop")
    sub.add_argument(
        "--scalar",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a loop-invariant scalar (repeatable)",
    )
    sub.add_argument(
        "--abstract",
        action="store_true",
        help="drop load/store nodes (the paper's figure mode)",
    )
    sub.add_argument(
        "--engine",
        choices=["step", "event"],
        default="event",
        help=(
            "simulation engine for frustum detection: 'event' "
            "(default) jumps between completion instants, 'step' "
            "advances one time unit per tick; results are identical"
        ),
    )
    sub.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage wall-clock table after the output",
    )
    sub.add_argument(
        "--ledger",
        nargs="?",
        const="auto",
        default=None,
        metavar="DIR",
        help=(
            "append a normalized run record to the JSONL run ledger "
            "(default directory: benchmarks/ledger)"
        ),
    )


def add_unroll(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--unroll",
        type=unroll_value,
        default=1,
        metavar="U",
        help=(
            "replicate the loop body U times (an integer, or 'auto' "
            "for the smallest factor whose per-instruction rate "
            "meets the dependence bound exactly)"
        ),
    )


def unroll_value(text: str):
    """``--unroll`` values: an integer or the literal ``auto``.  Range
    and cap validation happens downstream (shared with manifests and
    the service wire layer), so every entry point rejects the same
    values with the same message."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def parse_scalars(pairs: Sequence[str]) -> Dict[str, float]:
    scalars: Dict[str, float] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ReproError(f"--scalar expects NAME=VALUE, got {pair!r}")
        scalars[name] = float(value)
    return scalars


def compile_from_args(args: argparse.Namespace, stages: Optional[int] = None):
    """Read the loop file and run it through the compile façade."""
    from ..pipeline import compile_loop

    with open(args.loop_file) as handle:
        source = handle.read()
    result = compile_loop(
        source,
        scalars=parse_scalars(args.scalar),
        pipeline_stages=stages,
        include_io=not args.abstract,
        engine=getattr(args, "engine", "event"),
        unroll=getattr(args, "unroll", 1),
    )
    if getattr(args, "ledger", None) is not None:
        # main() appends the record (with timing/environment sections)
        # after the command succeeds
        args.ledger_payload = ledger_facts(result.payload)
    return result


#: Payload fields a loop command's run-ledger record copies as they are.
_LEDGER_FIELDS = (
    "loop",
    "cycle_time",
    "rate",
    "unroll",
    "achieved_rate",
    "dependence_bound",
    "initiation_interval",
    "n_transitions",
    "net_size",
    "engine",
)


def ledger_facts(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The stable facts of a loop command's run-ledger record, read
    from its compile payload — so every loop command records the same
    facts for the same loop, whatever the cache held."""
    frustum = payload["frustum"]
    facts = {name: payload[name] for name in _LEDGER_FIELDS}
    facts["frustum_length"] = frustum["length"]
    facts["transient"] = frustum["start_time"]
    facts["repeat_time"] = frustum["repeat_time"]
    return facts


def resolve_cli_cache_dir(args: argparse.Namespace):
    """The cache-dir precedence shared by ``compile``, ``serve`` and
    ``sweep``: ``--no-cache`` wins, then ``--cache-dir``, then the
    ``REPRO_CACHE`` environment toggle (unset/falsy means no cache)."""
    import pathlib

    from ..batch import resolve_cache_dir

    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return pathlib.Path(args.cache_dir)
    return resolve_cache_dir()
