"""Record the benchmark's answers: every input item with the sha256 of
its payload bytes and its cold-compile cost.

Run once from the repository root, against the commit whose answers
the benchmark should hold the program to::

    PYTHONPATH=src python3 tpnbench/record.py

It writes ``tpnbench/answers.json`` and refuses to do so unless the
recorded digests agree with the compiler goldens in
``tests/compiler/golden/`` and with the paper anchors in
:data:`ANCHORS`.  The payload bytes are the ones ``repro compile``
prints and ``repro serve`` answers with: ``stable_json(payload,
indent=2) + "\\n"``.

The item universe is the cross product of the loops below with
``unroll`` in {1, 2, 4, 8, auto}, A-code or abstract mode, and SCP depth
in {none, 4, 8}, for both simulation engines; plus "fresh" loops (chain
and recurrence sizes the cross product does not use), compiled once at
U = 1, which sweep-warm and serve-mix send as never-seen loops.  Items
whose median cold compile exceeds :data:`COST_CAP_MS` are left out, so
no item dominates a pass and the exponential cycle-enumeration cliff
(recurrences unrolled in A-code mode) stays out of timed runs.
"""

from __future__ import annotations

import json
import pathlib
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from common import digest  # noqa: E402

COST_CAP_MS = 150.0
UNROLLS = (1, 2, 4, 8, "auto")
DEPTHS = (None, 4, 8)
FAMILY_SIZES = (4, 8, 16)
FRESH_SIZES = (3, 5, 6, 7, 9, 10, 11, 12)
LIVERMORE = ("loop1", "loop3", "loop5", "loop7", "loop9", "loop9lcd", "loop11", "loop12")
EXAMPLES = ("l1", "l2", "interleave", "frac5")

#: golden file -> item id (the invocations in tests/compiler/test_golden.py)
GOLDENS = {
    "fig1_l1_abstract": "l1/u1/abstract/scp-/event",
    "l1_acode": "l1/u1/acode/scp-/event",
    "l1_scp4": "l1/u1/abstract/scp4/event",
    "interleave_auto": "interleave/uauto/abstract/scp-/event",
    "frac5_u1": "frac5/u1/abstract/scp-/event",
    "frac5_auto_step": "frac5/uauto/abstract/scp-/step",
}

#: Hand-written paper anchors: item id -> payload fields it must carry.
ANCHORS = {
    # Fig. 1, L1 (DOALL): rate 1/2; unrolling twice reaches gamma* = 1.
    "l1/u1/abstract/scp-/event": {"rate": "1/2"},
    "l1/uauto/abstract/scp-/event": {
        "unroll": 2, "achieved_rate": "1", "dependence_bound": "1",
    },
    # Fig. 2, L2 (loop-carried): rate 1/3.
    "l2/u1/abstract/scp-/event": {"rate": "1/3"},
    # gamma* = 2/3 closed at U = 2.
    "interleave/uauto/abstract/scp-/event": {
        "unroll": 2, "achieved_rate": "2/3",
    },
    # gamma = 2/5 at U = 1, no unrolling needed.
    "frac5/u1/abstract/scp-/event": {"rate": "2/5", "unroll": 1},
}


def item_id(loop, unroll, include_io, stages, engine):
    mode = "acode" if include_io else "abstract"
    return f"{loop}/u{unroll}/{mode}/scp{stages or '-'}/{engine}"


def loops():
    from repro.batch.manifest import chain_source
    from repro.loops.livermore import KERNELS

    base = {}
    for key in LIVERMORE:
        kernel = KERNELS[key]
        base[key] = {"source": kernel.source, "scalars": kernel.scalar_bindings() or None}
    for name in EXAMPLES:
        text = (ROOT / "examples" / f"{name}.loop").read_text(encoding="utf-8")
        base[name] = {"source": text, "scalars": None}
    for n in FAMILY_SIZES:
        for family in ("chain", "recurrence"):
            base[f"{family}{n}"] = {
                "source": chain_source(n, recurrence=family == "recurrence"),
                "scalars": None,
            }
    fresh = {}
    for n in FRESH_SIZES:
        for family in ("chain", "recurrence"):
            fresh[f"{family}{n}"] = {
                "source": chain_source(n, recurrence=family == "recurrence"),
                "scalars": None,
            }
    return base, fresh


class _Timeout(Exception):
    pass


_expired = []


def _alarm(signum, frame):
    # library code may wrap this in its own exception type; the flag
    # tells a timeout from a genuine compile failure
    _expired.append(True)
    raise _Timeout()


def measure(loop, unroll, include_io, stages, engine, repeats=3):
    """(payload bytes, median seconds) or None when one compile alone
    takes four times the cap."""
    from repro.obs import stable_json
    from repro.pipeline import compile_loop

    times = []
    body = None
    for _ in range(repeats):
        _expired.clear()
        signal.setitimer(signal.ITIMER_REAL, 4 * COST_CAP_MS / 1e3)
        try:
            start = time.perf_counter()
            compiled = compile_loop(
                loop["source"],
                scalars=loop["scalars"],
                pipeline_stages=stages,
                include_io=include_io,
                engine=engine,
                unroll=unroll,
            )
            text = stable_json(compiled.summary().payload(), indent=2) + "\n"
            times.append(time.perf_counter() - start)
        except Exception:
            if _expired:
                return None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if body is not None and text.encode() != body:
            raise SystemExit(f"non-deterministic payload for {loop}")
        body = text.encode()
        if times[-1] * 1e3 > 2 * COST_CAP_MS:
            break
    return body, statistics.median(times)


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    base, fresh = loops()
    measure(base["l1"], 1, True, None, "event")  # lazy imports, warm caches
    items = []
    payload_fields = ("rate", "unroll", "achieved_rate", "dependence_bound")

    def add(name, loop, unroll, include_io, stages, engine, group):
        measured = measure(loop, unroll, include_io, stages, engine)
        ident = item_id(name, unroll, include_io, stages, engine)
        if measured is None or measured[1] * 1e3 > COST_CAP_MS:
            print(f"  over the cap: {ident}", file=sys.stderr)
            return
        body, seconds = measured
        payload = json.loads(body)
        items.append(
            {
                "id": ident,
                "group": group,
                "loop": name,
                "unroll": unroll,
                "include_io": include_io,
                "pipeline_stages": stages,
                "engine": engine,
                "cost_ms": round(seconds * 1e3, 2),
                "digest": digest(body),
                "fields": {key: payload[key] for key in payload_fields},
            }
        )

    for engine, group in (("event", "pool"), ("step", "step")):
        for name, loop in base.items():
            print(f"{name} ({engine})", file=sys.stderr)
            for include_io in (True, False):
                for stages in DEPTHS:
                    for unroll in UNROLLS:
                        add(name, loop, unroll, include_io, stages, engine, group)
    for name, loop in fresh.items():
        for include_io in (True, False):
            add(name, loop, 1, include_io, None, "event", "fresh")

    by_id = {item["id"]: item for item in items}
    for golden, ident in GOLDENS.items():
        path = ROOT / "tests" / "compiler" / "golden" / f"{golden}.json"
        if digest(path.read_bytes()) != by_id[ident]["digest"]:
            raise SystemExit(f"{ident} disagrees with golden {golden}")
    for ident, fields in ANCHORS.items():
        got = by_id[ident]["fields"]
        for key, want in fields.items():
            if Fraction(str(got[key])) != Fraction(str(want)):
                raise SystemExit(f"{ident}: {key} = {got[key]}, paper says {want}")

    document = {
        "schema": 1,
        "cost_cap_ms": COST_CAP_MS,
        "loops": {**base, **fresh},
        "goldens": GOLDENS,
        "anchors": ANCHORS,
        "items": items,
    }
    target = HERE / "answers.json"
    target.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(items)} items to {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
