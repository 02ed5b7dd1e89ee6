"""Howard's policy iteration in :class:`fractions.Fraction` arithmetic —
the reference the integer implementation in
:mod:`repro.petrinet.howard` is tested against.

It runs the same policy trajectory as production (same start policy,
same edge order, same anchoring of each policy cycle's values, same
gain-then-bias improvement and the same witness walk), but evaluates
every gain and value as an exact ``Fraction``, so a scaling or
cross-multiplication slip in the integer code shows up as a different
cycle time, witness, iteration count, critical graph (the edges tight
under the converged values) or converged potentials.  Only tests
import it.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from repro.errors import AnalysisError
from repro.petrinet import HowardResult, MarkedGraphView, SimpleCycle
from repro.petrinet.howard import _build_edges


def _evaluate(
    nodes, policy, previous
) -> Tuple[Dict[str, Fraction], Dict[str, Fraction]]:
    previous_lam, previous_val = previous
    lam: Dict[str, Fraction] = {}
    val: Dict[str, Fraction] = {}
    state = {node: 0 for node in nodes}  # 0 new, 1 open, 2 done
    for start in nodes:
        if state[start] == 2:
            continue
        path: List[str] = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = policy[node].target
        if state[node] == 1:
            cycle = path[path.index(node):]
            gain = Fraction(
                sum(policy[u].weight for u in cycle),
                sum(policy[u].height for u in cycle),
            )
            anchor = cycle[0]
            lam[anchor], state[anchor] = gain, 2
            # a kept cycle keeps its anchor's value
            val[anchor] = (
                previous_val[anchor]
                if previous_lam.get(anchor) == gain
                else Fraction(0)
            )
            for u in reversed(cycle[1:]):
                edge = policy[u]
                lam[u] = gain
                val[u] = edge.weight - gain * edge.height + val[edge.target]
                state[u] = 2
        for u in reversed(path):
            if state[u] == 2:
                continue
            edge = policy[u]
            lam[u] = lam[edge.target]
            val[u] = edge.weight - lam[u] * edge.height + val[edge.target]
            state[u] = 2
    return lam, val


def howard_analysis_fraction(
    view: MarkedGraphView, durations
) -> HowardResult:
    """:func:`repro.petrinet.howard_analysis`, in ``Fraction``\\ s."""
    nodes = tuple(view.net.transition_names)
    if not nodes:
        raise AnalysisError("net has no transitions; cycle time undefined")
    dead = view.token_free_cycle()
    if dead is not None:
        raise AnalysisError(
            "cycle through "
            + " -> ".join(dead.transitions)
            + " carries no token: the net is not live and has no cycle time"
        )
    out_edges = _build_edges(nodes, view.edges, durations)
    policy = {u: out_edges[u][-1] for u in nodes}
    iterations = 0
    lam, val = {}, {}
    while True:
        iterations += 1
        lam, val = _evaluate(nodes, policy, (lam, val))
        changed = False
        for u in nodes:
            best, best_gain = policy[u], lam[u]
            for edge in out_edges[u]:
                if lam[edge.target] > best_gain:
                    best, best_gain = edge, lam[edge.target]
            if best_gain > lam[u]:
                policy[u] = best
                changed = True
        if changed:
            continue
        for u in nodes:
            gain, best_val, best = lam[u], val[u], None
            for edge in out_edges[u]:
                if lam[edge.target] != gain:
                    continue
                candidate = edge.weight - gain * edge.height + val[edge.target]
                if candidate > best_val:
                    best, best_val = edge, candidate
            if best is not None:
                policy[u] = best
                changed = True
        if not changed:
            break

    alpha = max(lam.values())
    tight = tuple(
        (u, edge.target, edge.place)
        for u in nodes
        if lam[u] == alpha
        for edge in out_edges[u]
        if lam[edge.target] == alpha
        and val[u] == edge.weight - alpha * edge.height + val[edge.target]
    )
    gains = {u: (lam[u].numerator, lam[u].denominator) for u in nodes}
    values = {u: int(val[u] * lam[u].denominator) for u in nodes}
    start = min(u for u in nodes if lam[u] == alpha)
    seen: Dict[str, int] = {}
    path: List[str] = []
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = policy[node].target
    cycle = path[seen[node]:]
    if len(cycle) == 1 and policy[cycle[0]].place is None:
        return HowardResult(
            alpha, None, cycle[0], iterations, tight, gains, values
        )
    places = [policy[u].place for u in cycle]
    rotate = min(range(len(cycle)), key=cycle.__getitem__)
    witness = SimpleCycle(
        tuple(cycle[rotate:]) + tuple(cycle[:rotate]),
        tuple(places[rotate:]) + tuple(places[:rotate]),
    )
    return HowardResult(
        alpha, witness, None, iterations, tight, gains, values
    )
