"""Sweep manifests: which loops to compile, with which configs.

A manifest is a JSON file — either a bare list of items or
``{"items": [...]}`` — where each item is::

    {
      "name": "recurrence-32",          // required, unique label
      "source": "do chain: ...",        // inline loop text, or
      "file": "loops/l2.loop",          //   a path relative to the manifest
      "scalars": {"k": 3.0},            // optional
      "pipeline_stages": 8,             // optional (SDSP-SCP-PN)
      "include_io": true,               // optional, default true
      "engine": "event",                // optional, default "event"
      "unroll": 2                       // optional, default 1; int or "auto"
    }

:func:`scaling_items` generates the scaling-family manifest
programmatically (the same chain/recurrence families as
``benchmarks/bench_scaling.py``), and ``tools/gen_scaling_manifest.py``
writes it to ``benchmarks/manifests/scaling.json`` for the CLI.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..errors import ReproError
from ..loops.unroll import validate_unroll
from .cache import cache_key

__all__ = [
    "SweepItem", "load_manifest", "scaling_items", "chain_source", "grid_source",
]

_PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class SweepItem:
    """One manifest entry: a loop plus its compilation config.

    Plain data only — instances cross process boundaries (pickled into
    sweep workers); :meth:`cache_key` is the payload's store address.
    """

    name: str
    source: str
    scalars: Optional[Dict[str, float]] = None
    pipeline_stages: Optional[int] = None
    include_io: bool = True
    engine: str = "event"
    #: Unroll factor: a positive int up to
    #: :data:`repro.loops.unroll.MAX_UNROLL`, or ``"auto"``.
    unroll: Union[int, str] = 1

    def cache_key(self) -> str:
        """This item's :func:`~repro.batch.cache.cache_key`."""
        return cache_key(
            self.source,
            scalars=self.scalars,
            pipeline_stages=self.pipeline_stages,
            include_io=self.include_io,
            engine=self.engine,
            unroll=self.unroll,
        )

    @classmethod
    def from_mapping(
        cls,
        data: Mapping[str, Any],
        base_dir: Optional[_PathLike] = None,
        index: Optional[int] = None,
    ) -> "SweepItem":
        """Validate one manifest item; ``file`` entries are resolved
        relative to ``base_dir`` (the manifest's directory)."""
        where = f"manifest item {index}" if index is not None else "manifest item"
        if not isinstance(data, Mapping):
            raise ReproError(f"{where}: expected a mapping, got {type(data).__name__}")
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ReproError(f"{where}: 'name' must be a non-empty string")
        source = data.get("source")
        file_ref = data.get("file")
        if (source is None) == (file_ref is None):
            raise ReproError(
                f"{where} ({name!r}): exactly one of 'source' or 'file' "
                "is required"
            )
        if file_ref is not None:
            path = pathlib.Path(file_ref)
            if not path.is_absolute() and base_dir is not None:
                path = pathlib.Path(base_dir) / path
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as error:
                raise ReproError(
                    f"{where} ({name!r}): cannot read loop file: {error}"
                ) from error
        scalars = data.get("scalars")
        if scalars is not None:
            if not isinstance(scalars, Mapping):
                raise ReproError(f"{where} ({name!r}): 'scalars' must be a mapping")
            scalars = {str(k): float(v) for k, v in scalars.items()}
        stages = data.get("pipeline_stages")
        if stages is not None:
            stages = int(stages)
        engine = str(data.get("engine", "event"))
        if engine not in ("step", "event"):
            raise ReproError(
                f"{where} ({name!r}): engine must be 'step' or 'event', "
                f"got {engine!r}"
            )
        unroll = validate_unroll(
            data.get("unroll", 1), where=f"{where} ({name!r}): 'unroll'"
        )
        return cls(
            name=name,
            source=str(source),
            scalars=scalars,
            pipeline_stages=stages,
            include_io=bool(data.get("include_io", True)),
            engine=engine,
            unroll=unroll,
        )


def load_manifest(path: _PathLike) -> List[SweepItem]:
    """Parse a manifest file into validated :class:`SweepItem` s.

    Duplicate names are rejected — the merged sweep payload is keyed by
    manifest position but reported by name, and a duplicate would make
    cache-hit accounting ambiguous to readers.
    """
    target = pathlib.Path(path)
    try:
        data = json.loads(target.read_text(encoding="utf-8"))
    except OSError as error:
        raise ReproError(f"cannot read manifest {target}: {error}") from error
    except json.JSONDecodeError as error:
        raise ReproError(f"{target}: malformed manifest JSON ({error})") from error
    if isinstance(data, Mapping):
        data = data.get("items")
    if not isinstance(data, list) or not data:
        raise ReproError(
            f"{target}: manifest must be a non-empty list of items "
            "(or {'items': [...]})"
        )
    items = [
        SweepItem.from_mapping(entry, base_dir=target.parent, index=index)
        for index, entry in enumerate(data)
    ]
    seen: Dict[str, int] = {}
    for index, item in enumerate(items):
        if item.name in seen:
            raise ReproError(
                f"{target}: duplicate item name {item.name!r} "
                f"(items {seen[item.name]} and {index})"
            )
        seen[item.name] = index
    return items


def chain_source(n: int, recurrence: bool) -> str:
    """The scaling-family loop body of size ``n``: a dependence chain,
    optionally closed with a distance-1 carried arc from the last
    statement back to the first (one long critical cycle)."""
    lines = [f"do {'recurrence' if recurrence else 'chain'}{n}:"]
    first_rhs = (
        f"IN[i] + T{n - 1}[i-1]" if recurrence else "IN[i] + 1"
    )
    lines.append(f"  T0[i] = {first_rhs}")
    for k in range(1, n):
        lines.append(f"  T{k}[i] = T{k - 1}[i] + IN[i]")
    return "\n".join(lines)


def grid_source(width: int, depth: int) -> str:
    """A layered DOALL loop body, ``width`` statements wide and
    ``depth`` layers deep: layer 0 reads the input, and each statement
    of a later layer adds two neighbours of the layer before it.  With
    no loop-carried arc, every simple cycle of its net is a critical
    cycle, and their number grows exponentially with the depth (the
    3×9 grid's A-code net has 55 transitions and 666,712 node cycles),
    which makes it the stress case for any report that lists them."""
    lines = [f"do grid{width}x{depth}:"]
    for j in range(width):
        lines.append(f"  L0N{j}[i] = IN[i] + {j + 1}")
    for layer in range(1, depth):
        for j in range(width):
            lines.append(
                f"  L{layer}N{j}[i] = L{layer - 1}N{j}[i] + "
                f"L{layer - 1}N{(j + 1) % width}[i]"
            )
    return "\n".join(lines)


def scaling_items(
    sizes: Sequence[int] = (4, 8, 16, 32),
    families: Iterable[str] = ("chain", "recurrence"),
    engine: str = "event",
) -> List[SweepItem]:
    """The scaling-family sweep: ``chain``/``recurrence`` loops over
    ``sizes``, in deterministic (family-major) manifest order."""
    items: List[SweepItem] = []
    for family in families:
        if family not in ("chain", "recurrence"):
            raise ReproError(f"unknown scaling family {family!r}")
        for n in sizes:
            items.append(
                SweepItem(
                    name=f"{family}-{n}",
                    source=chain_source(n, recurrence=family == "recurrence"),
                    include_io=False,
                    engine=engine,
                )
            )
    return items
