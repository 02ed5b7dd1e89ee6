#!/usr/bin/env python3
"""Check the compiler against the benchmark's recorded answers
(``make answers``).

``tpnbench/answers.json`` records, for every benchmark item, the sha256
of its payload bytes: ``stable_json(payload, indent=2) + "\\n"``, what
``repro compile`` prints and ``repro serve`` answers with.  This tool
compiles every item twice through one fresh temporary store, the way
``repro compile --cache-dir`` does:

1. *cold* — every whole payload misses and is compiled (its upstream
   stages may hit artifacts that earlier items stored) and stored;
2. *warm* — every whole payload is read back from the store.

Both passes must reproduce every recorded digest.  A mismatch names
the item and exits 1.  The answers file is only read::

    PYTHONPATH=src python tools/check_answers.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile
import time
from typing import Any, Dict, List, Mapping, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.batch import SweepItem, compile_one  # noqa: E402
from repro.obs import stable_json  # noqa: E402

ANSWERS = ROOT / "tpnbench" / "answers.json"


def sweep_item(loops: Mapping[str, Any], item: Mapping[str, Any]) -> SweepItem:
    """The compile request of one recorded item."""
    loop = loops[item["loop"]]
    return SweepItem(
        name=item["id"],
        source=loop["source"],
        scalars=loop.get("scalars") or None,
        pipeline_stages=item["pipeline_stages"],
        include_io=item["include_io"],
        engine=item["engine"],
        unroll=item["unroll"],
    )


def check(
    items: List[Tuple[Dict[str, Any], SweepItem]],
    cache: pathlib.Path,
    warm: bool,
) -> List[str]:
    """One pass over every item; the failures, one line each."""
    failures = []
    for item, request in items:
        result = compile_one(request, cache_dir=cache)
        if not result.ok:
            failures.append(
                f"{item['id']}: {result.error['type']}: "
                f"{result.error['message']}"
            )
            continue
        if result.cache_hit != warm:
            failures.append(
                f"{item['id']}: expected a whole-payload "
                f"{'hit' if warm else 'miss'}"
            )
        body = (stable_json(result.payload, indent=2) + "\n").encode("utf-8")
        if hashlib.sha256(body).hexdigest() != item["digest"]:
            failures.append(f"{item['id']}: payload digest differs")
    return failures


def main() -> int:
    answers = json.loads(ANSWERS.read_text(encoding="utf-8"))
    items = [
        (item, sweep_item(answers["loops"], item))
        for item in answers["items"]
    ]
    with tempfile.TemporaryDirectory(prefix="repro-answers-") as tmp:
        for mode in ("cold", "warm"):
            started = time.perf_counter()
            failures = check(items, pathlib.Path(tmp), warm=mode == "warm")
            for line in failures:
                print(f"answers: {mode}: FAIL: {line}", file=sys.stderr)
            if failures:
                print(
                    f"answers: {mode}: {len(failures)} failure(s) over "
                    f"{len(items)} items",
                    file=sys.stderr,
                )
                return 1
            print(
                f"answers: {mode}: {len(items)} digests match "
                f"({time.perf_counter() - started:.1f} s)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
