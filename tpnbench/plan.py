"""Seeded inputs of the three workloads, drawn from the recorded answers.

Every draw is *stratified by recorded cost*: the candidates are sorted
by their cold-compile cost, cut into equal strata, and one item is
drawn per stratum.  Two seeds therefore give different items of the
same cost profile, so a metric's spread across seeds measures the
program and the host, not the luck of the draw.  (sweep-warm, whose
costs the recorded cold costs do not predict, varies only its order.)
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

#: compile-cold: one item of every ``COLD_STRATUM`` neighbours in cost.
COLD_STRATUM = 4

#: sweep-warm manifest: cached items, downstream variants, new loops.
#: Variants stay cheaper than new loops, and the 5% of new loops come
#: from a narrow cost band, so the top 1% of item times (the tail) is
#: always new loops of about the same cost, whatever the seed.
SWEEP_FILLED = 72
SWEEP_VARIANTS = 22
SWEEP_VARIANT_CAP_MS = 20.0
SWEEP_NEW = 5
SWEEP_NEW_BAND_MS = (25.0, 40.0)

#: serve-mix: pre-filled items, and one first-time request per block.
SERVE_FILLED = 48
SERVE_BLOCK = 20
#: first-time requests are drawn from items no dearer than this, in
#: rounds that visit every cost stratum once, so any prefix of the
#: queue has the same cost profile.
SERVE_MISS_CAP_MS = 60.0
SERVE_MISS_STRATA = 10


def stratified(items: Sequence[Mapping], k: int, rng: random.Random) -> List[Mapping]:
    """One item from each of ``k`` equal cost strata."""
    ordered = sorted(items, key=lambda item: (item["cost_ms"], item["id"]))
    if k > len(ordered):
        raise ValueError(f"cannot draw {k} strata from {len(ordered)} items")
    picks = []
    for j in range(k):
        lo = j * len(ordered) // k
        hi = (j + 1) * len(ordered) // k
        picks.append(ordered[rng.randrange(lo, hi)])
    return picks


def _group(answers: Mapping, group: str) -> List[Mapping]:
    return [item for item in answers["items"] if item["group"] == group]


def _key(item: Mapping) -> Tuple:
    return (item["loop"], item["unroll"], item["include_io"], item["pipeline_stages"], item["engine"])


# ----------------------------------------------------------------------
# compile-cold
# ----------------------------------------------------------------------
def compile_cold_draw(answers: Mapping, seed: int) -> List[Mapping]:
    """The items compiled in every pass of compile-cold."""
    rng = random.Random(f"compile-cold/{seed}")
    pool = _group(answers, "pool")
    return stratified(pool, len(pool) // COLD_STRATUM, rng)


def compile_cold_passes(draw: Sequence[Mapping], seed: int) -> Iterator[Tuple[int, Mapping]]:
    """``(pass number, item)`` forever; each pass is a fresh shuffle."""
    rng = random.Random(f"compile-cold-order/{seed}")
    number = 0
    while True:
        order = list(draw)
        rng.shuffle(order)
        for item in order:
            yield number, item
        number += 1


# ----------------------------------------------------------------------
# sweep-warm
# ----------------------------------------------------------------------
def _variants(item: Mapping, universe: Mapping[Tuple, Mapping]) -> List[Mapping]:
    """Recorded items that differ from ``item`` in one downstream
    parameter: the SCP depth, the engine or the unroll factor."""
    loop, unroll, io, stages, engine = _key(item)
    keys = [(loop, unroll, io, s, engine) for s in (None, 4, 8) if s != stages]
    keys.append((loop, unroll, io, stages, "step" if engine == "event" else "event"))
    keys.extend((loop, u, io, stages, engine) for u in (1, 2, 4, 8, "auto") if u != unroll)
    return [universe[key] for key in keys if key in universe]


def sweep_warm_plan(answers: Mapping, seed: int) -> Dict[str, List[Mapping]]:
    """The cached (filled) items, their downstream variants and the new
    loops of a sweep-warm run, plus the manifest order.

    Only the order depends on the seed.  What a variant costs in a warm
    sweep depends on the upstream artifacts it shares, and measured
    0.3-2.2 times its recorded cold cost, so seeded subsets moved a
    pass's cost by about 20% however they were stratified.  The subsets
    are drawn once, from a fixed seed.
    """
    rng = random.Random("sweep-warm")
    pool = _group(answers, "pool")
    universe = {_key(item): item for item in pool + _group(answers, "step")}
    filled = stratified(pool, SWEEP_FILLED, rng)
    taken = {item["id"] for item in filled}
    candidates: Dict[str, Tuple[Mapping, str]] = {}
    for base in filled:
        for variant in _variants(base, universe):
            if variant["id"] not in taken and variant["cost_ms"] <= SWEEP_VARIANT_CAP_MS:
                candidates.setdefault(variant["id"], (variant, base["id"]))
    ordered = sorted(candidates.values(), key=lambda pair: (pair[0]["cost_ms"], pair[0]["id"]))
    variants, bases = [], set()
    for j in range(SWEEP_VARIANTS):
        stratum = ordered[j * len(ordered) // SWEEP_VARIANTS:(j + 1) * len(ordered) // SWEEP_VARIANTS]
        rng.shuffle(stratum)
        for variant, base in stratum:
            if base not in bases:  # one variant per cached item
                variants.append(variant)
                bases.add(base)
                break
    low, high = SWEEP_NEW_BAND_MS
    fresh = [item for item in _group(answers, "fresh") if low <= item["cost_ms"] <= high]
    new = stratified(fresh, SWEEP_NEW, rng)
    manifest = filled + variants + new
    random.Random(f"sweep-warm/{seed}").shuffle(manifest)
    return {"filled": filled, "variants": variants, "new": new, "manifest": manifest}


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def serve_mix_plan(answers: Mapping, seed: int) -> Dict[str, List[Mapping]]:
    """The pre-filled items and the queue of first-time requests."""
    rng = random.Random(f"serve-mix/{seed}")
    pool = _group(answers, "pool")
    filled = stratified(pool, SERVE_FILLED, rng)
    taken = {item["id"] for item in filled}
    candidates = [
        item
        for item in answers["items"]
        if item["id"] not in taken and item["cost_ms"] <= SERVE_MISS_CAP_MS
    ]
    candidates.sort(key=lambda item: (item["cost_ms"], item["id"]))
    strata = []
    for j in range(SERVE_MISS_STRATA):
        lo = j * len(candidates) // SERVE_MISS_STRATA
        hi = (j + 1) * len(candidates) // SERVE_MISS_STRATA
        stratum = candidates[lo:hi]
        rng.shuffle(stratum)
        strata.append(stratum)
    queue = []
    while any(strata):
        order = list(range(SERVE_MISS_STRATA))
        rng.shuffle(order)
        queue.extend(strata[j].pop() for j in order if strata[j])
    return {"filled": filled, "misses": queue}


def serve_mix_requests(plan: Mapping, seed: int) -> Iterator[Tuple[str, Mapping]]:
    """``("hit" | "miss", item)`` in request order: blocks of
    :data:`SERVE_BLOCK` requests, each with exactly one first-time
    request at a seeded position.  Ends when the first-time queue does,
    so no first-time request is ever repeated."""
    rng = random.Random(f"serve-mix-order/{seed}")
    filled = plan["filled"]
    for miss in plan["misses"]:
        slot = rng.randrange(SERVE_BLOCK)
        for position in range(SERVE_BLOCK):
            if position == slot:
                yield "miss", miss
            else:
                yield "hit", filled[rng.randrange(len(filled))]
