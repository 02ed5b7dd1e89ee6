"""Howard's policy iteration for the maximum cycle ratio (cycle time).

The cycle time of a live timed marked graph,

    alpha = max over simple cycles C of  Ω(C) / M(C),

is the max-plus spectral radius of the transition digraph in which each
place becomes an edge ``producer → consumer`` with *weight* the
producer's execution time and *height* the place's initial token count
(plus, per Assumption A.6.1, one implicit self-loop of weight ``τ(t)``
and height 1 per transition).  Enumeration
(:func:`repro.petrinet.analysis.cycle_time_by_enumeration`) is
exponential in general and Lawler's parametric search re-runs
Bellman–Ford per probe; Howard's policy iteration computes the same
value in near-linear practical time (Cochet-Terrasson et al.; the same
lever used by the max-plus scheduling literature, e.g. Zorzenon et al.
2022 and Millo & de Simone 2012), which is why every command routes
through it, starting with :func:`repro.core.rate.optimal_rate`.  A net
with a token-free cycle has no cycle time; it is rejected up front,
naming that cycle (:meth:`MarkedGraphView.token_free_cycle`).

The iteration maintains a *policy* — one outgoing edge per node — whose
one-cycle-per-component functional graph is evaluated exactly, then
improved first by gain (reach a larger cycle ratio) and then by bias.
The arithmetic is exact and integer: a gain is a reduced
``(numerator, denominator)`` pair, two gains are compared by
cross-multiplying, and a node's value is kept scaled by its gain's
denominator (values are only compared within one gain).  No float and
no :class:`fractions.Fraction` enters the loop; one ``Fraction`` is
built, for the answer.  At convergence the optimality inequalities hold
for **every** edge, which telescopes into a machine-checked proof that
no cycle beats the answer, and the final policy graph contains a
witness cycle attaining it.

The converged potentials also give the *critical graph* (the max-plus
spectral result; Zorzenon et al., Millo & de Simone).  Gains never rise
along an edge, so every critical cycle lies among the nodes whose gain
is the cycle time ``α``.  There an edge's reduced cost
``V(u) − (w·den − num·h + V(v))`` is ``≥ 0``, and reduced costs
telescope to ``num·M(C) − den·Ω(C)`` around a cycle ``C``: zero exactly
when ``Ω(C)/M(C) = α``.  So a cycle is critical iff every edge on it is
*tight* (reduced cost 0), and :attr:`HowardResult.tight_edges` lists
those edges — implicit self-loops included.  The bounds count critical
cycles in that graph and ``repro analyze`` and ``repro explain`` list
them (:meth:`HowardResult.critical_node_cycles`), without enumerating
the net.  The converged gains and values travel with the result, so
:func:`check_certificate` can re-check the inequalities against the net
in one pass, and the dash's slack can use the values as potentials.

>>> from repro.loops import parse_loop, translate
>>> from repro.core import build_sdsp_pn
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> result = howard_analysis(pn.view(), pn.durations)
>>> result.cycle_time
Fraction(1, 1)
>>> cycle_time_howard(pn.view(), pn.durations) == result.cycle_time
True
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..digraph import simple_cycles
from ..errors import AnalysisError
from .marked_graph import MarkedGraphView, SimpleCycle

__all__ = [
    "HowardResult",
    "check_certificate",
    "cycle_time_howard",
    "howard_analysis",
]

# A cycle ratio as a reduced ``(numerator, denominator)`` pair of ints,
# denominator positive: equal ratios are equal pairs.
_Gain = Tuple[int, int]

#: An edge of the critical graph: ``(producer, consumer, place)``, with
#: ``place`` None for a transition's implicit self-loop.
TightEdge = Tuple[str, str, Optional[str]]


@dataclass(frozen=True)
class _Edge:
    """One out-edge of the transition digraph: follow ``place`` (or the
    implicit self-loop when ``place`` is None) to ``target``, paying
    ``weight`` execution time over ``height`` tokens."""

    target: str
    weight: int
    height: int
    place: Optional[str]


@dataclass(frozen=True)
class HowardResult:
    """The converged answer with its witness.

    ``critical_cycle`` is a structural simple cycle attaining the cycle
    time, canonically rotated like
    :meth:`~repro.petrinet.marked_graph.MarkedGraphView.simple_cycles`;
    it is ``None`` when the maximum is attained only by an implicit
    self-loop, in which case ``critical_self_loop`` names the slow
    transition.  ``iterations`` counts policy-improvement rounds.

    ``tight_edges`` is the critical graph: every edge between two nodes
    of gain ``α`` whose reduced cost is zero under the converged
    potentials, as ``(producer, consumer, place)`` with ``place`` None
    for an implicit self-loop, in node order and then out-edge order.
    Its cycles are exactly the critical cycles; it may also hold tight
    edges that lie on none.

    ``gains`` and ``values`` are the converged potentials of every
    transition: its gain as a reduced ``(numerator, denominator)``
    pair, and its value scaled by that denominator.
    """

    cycle_time: Fraction
    critical_cycle: Optional[SimpleCycle]
    critical_self_loop: Optional[str]
    iterations: int
    tight_edges: Tuple[TightEdge, ...]
    gains: Mapping[str, Tuple[int, int]]
    values: Mapping[str, int]

    @property
    def computation_rate(self) -> Fraction:
        return 1 / self.cycle_time

    def critical_node_cycles(
        self,
    ) -> Iterator[Tuple[Sequence[str], Tuple[Sequence[str], ...]]]:
        """The critical cycles, grouped by node cycle, as
        ``(transitions, places)``: ``places[i]`` holds the tight places
        of the hop from ``transitions[i]`` to the next, and the node
        cycle stands for one critical cycle per choice of place on each
        hop.  Each critical implicit self-loop comes first, as
        ``([t], ())``; then Johnson's search runs over the critical
        graph only, so a caller that stops early stops the search."""
        hops: Dict[str, Dict[str, List[str]]] = {}
        for producer, consumer, place in self.tight_edges:
            if place is None:
                yield [producer], ()
                continue
            hops.setdefault(producer, {}).setdefault(consumer, []).append(place)
            hops.setdefault(consumer, {})
        for cycle in simple_cycles(hops):
            yield cycle, tuple(
                hops[node][succ] for node, succ in zip(cycle, cycle[1:] + cycle[:1])
            )


def _build_edges(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> Dict[str, List[_Edge]]:
    net = view.net
    initial = view.initial
    out: Dict[str, List[_Edge]] = {t: [] for t in net.transition_names}
    for place in net.place_names:
        (producer,) = net.input_transitions(place)
        (consumer,) = net.output_transitions(place)
        out[producer].append(
            _Edge(consumer, durations[producer], initial[place], place)
        )
    for transition in net.transition_names:
        out[transition].append(
            _Edge(transition, durations[transition], 1, None)
        )
    # Deterministic edge order (place name; self-loop last) so the
    # converged policy — and hence the reported witness — is stable
    # across processes and hash seeds.
    for transition in out:
        out[transition].sort(key=lambda e: (e.place is None, e.place or ""))
    return out


def _evaluate(
    nodes: Tuple[str, ...],
    policy: Dict[str, _Edge],
    previous: Tuple[Dict[str, _Gain], Dict[str, int]],
) -> Tuple[Dict[str, _Gain], Dict[str, int]]:
    """Exact multichain policy evaluation, in integers.

    The policy graph is functional (one successor per node), so every
    node leads to exactly one cycle.  Each cycle gets gain
    ``λ = Σ weight / Σ height``, kept as a reduced ``(num, den)`` pair;
    values satisfy ``v(u) = w(u) − λ·h(u) + v(next(u))`` and are stored
    scaled by ``den``: ``V(u) = w(u)·den − num·h(u) + V(next(u))``.
    Values are only ever compared between nodes of one gain, so the
    scaling preserves every comparison.

    A cycle's first discovered node anchors its values.  It keeps its
    ``previous`` value when its gain is unchanged — then the cycle is
    one the last policy already had, because a bias step only closes
    new cycles of a larger ratio — and starts at 0 otherwise.  Without
    that, a kept cycle whose anchor moved would shift its component's
    values against another component of the same gain, and the bias
    step could switch between two policies for ever (Cochet-Terrasson
    et al. fix the anchor for the same reason).
    """
    previous_lam, previous_val = previous
    lam: Dict[str, _Gain] = {}
    val: Dict[str, int] = {}
    state: Dict[str, int] = {node: 0 for node in nodes}  # 0 new, 1 open, 2 done
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
            # Discovered a new policy cycle: path[index:] closes at node.
            index = path.index(node)
            cycle = path[index:]
            weight = sum(policy[u].weight for u in cycle)
            height = sum(policy[u].height for u in cycle)
            if height == 0:  # pragma: no cover - excluded by the liveness check
                raise AnalysisError(
                    "policy cycle through "
                    + " -> ".join(cycle)
                    + " carries no token: the net is not live"
                )
            divisor = gcd(weight, height)
            gain = (weight // divisor, height // divisor)
            num, den = gain
            anchor = cycle[0]
            lam[anchor] = gain
            val[anchor] = (
                previous_val[anchor] if previous_lam.get(anchor) == gain else 0
            )
            state[anchor] = 2
            for u in reversed(cycle[1:]):
                edge = policy[u]
                lam[u] = gain
                val[u] = edge.weight * den - num * edge.height + val[edge.target]
                state[u] = 2
        # Unwind the tail (and any prefix before the cycle): each node's
        # gain/value follow from its successor's.
        for u in reversed(path):
            if state[u] == 2:
                continue
            edge = policy[u]
            gain = lam[u] = lam[edge.target]
            val[u] = (
                edge.weight * gain[1] - gain[0] * edge.height + val[edge.target]
            )
            state[u] = 2
    return lam, val


def howard_analysis(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> HowardResult:
    """Maximum cycle ratio of a live timed marked graph by policy
    iteration, with a witness critical cycle (or self-loop)."""
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
    out_edges = _build_edges(view, durations)
    # Start from the always-present self-loops: a valid policy whose
    # evaluation (λ(t) = τ(t)) is the paper's self-loop floor.
    policy: Dict[str, _Edge] = {u: out_edges[u][-1] for u in nodes}

    iterations = 0
    lam: Dict[str, _Gain] = {}
    val: Dict[str, int] = {}
    limit = 16 + 4 * len(nodes) * sum(len(e) for e in out_edges.values())
    while True:
        iterations += 1
        if iterations > limit:  # pragma: no cover - defensive
            raise AnalysisError(
                "Howard policy iteration failed to converge within "
                f"{limit} rounds"
            )
        lam, val = _evaluate(nodes, policy, (lam, val))
        # Gain improvement: move to a strictly larger reachable ratio
        # (a/b > c/d  iff  a·d > c·b, denominators being positive).
        changed = False
        for u in nodes:
            best = None
            best_num, best_den = lam[u]
            for edge in out_edges[u]:
                num, den = lam[edge.target]
                if num * best_den > best_num * den:
                    best, best_num, best_den = edge, num, den
            if best is not None:
                policy[u] = best
                changed = True
        if changed:
            continue
        # Bias improvement among equal-gain edges.
        for u in nodes:
            gain = lam[u]
            num, den = gain
            best_val = val[u]
            best = None
            for edge in out_edges[u]:
                if lam[edge.target] != gain:
                    continue
                candidate = edge.weight * den - num * edge.height + val[edge.target]
                if candidate > best_val:
                    best, best_val = edge, candidate
            if best is not None:
                policy[u] = best
                changed = True
        if not changed:
            break

    alpha = lam[nodes[0]]
    for gain in lam.values():
        if gain[0] * alpha[1] > alpha[0] * gain[1]:
            alpha = gain
    witness_cycle, witness_loop = _extract_witness(nodes, policy, lam, alpha)
    num, den = alpha
    tight = tuple(
        (u, edge.target, edge.place)
        for u in nodes
        if lam[u] == alpha
        for edge in out_edges[u]
        if lam[edge.target] == alpha
        and val[u] == edge.weight * den - num * edge.height + val[edge.target]
    )
    return HowardResult(
        Fraction(*alpha), witness_cycle, witness_loop, iterations, tight,
        lam, val,
    )


def _extract_witness(
    nodes: Tuple[str, ...],
    policy: Dict[str, _Edge],
    lam: Dict[str, _Gain],
    alpha: _Gain,
) -> Tuple[Optional[SimpleCycle], Optional[str]]:
    """Walk the converged policy from the smallest-named optimal node to
    its cycle; that cycle's ratio equals its nodes' gain, i.e. alpha."""
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
        return None, cycle[0]
    places = [policy[u].place for u in cycle]
    rotate = min(range(len(cycle)), key=cycle.__getitem__)
    transitions = tuple(cycle[rotate:]) + tuple(cycle[:rotate])
    rotated_places = tuple(places[rotate:]) + tuple(places[:rotate])
    return SimpleCycle(transitions, rotated_places), None


def cycle_time_howard(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> Fraction:
    """Cycle time ``alpha`` by Howard's policy iteration (exact)."""
    return howard_analysis(view, durations).cycle_time


def check_certificate(
    view: MarkedGraphView, durations: Mapping[str, int], result: HowardResult
) -> None:
    """Check Howard's optimality certificate against the net, in one
    pass over its places and transitions; raise :class:`AnalysisError`
    naming the first violation.

    Every place ``p = u → v`` (weight ``τ(u)``, height ``M(p)``) and
    every implicit self-loop must satisfy, under ``result``'s gains and
    values:

    * the gain does not rise along it: ``λ(v) ≤ λ(u)``;
    * between nodes of equal gain ``num/den``,
      ``V(u) ≥ w·den − num·h + V(v)``;

    and the cycle time must be the largest gain.  The two inequalities
    telescope around any cycle into ``Ω(C)/M(C) ≤ λ ≤ α``, so no cycle
    beats the answer; a critical cycle of ratio ``α`` (which the caller
    checks) shows it is attained.
    """
    gains, values = result.gains, result.values
    net = view.net
    edges = [
        (net.input_transitions(place)[0], net.output_transitions(place)[0],
         view.initial[place], place)
        for place in net.place_names
    ]
    edges += [(t, t, 1, None) for t in net.transition_names]
    for producer, consumer, height, place in edges:
        num, den = gains[producer]
        target_num, target_den = gains[consumer]
        where = (
            f"place {place!r}" if place is not None
            else f"the self-loop of {producer!r}"
        )
        if target_num * den > num * target_den:
            raise AnalysisError(
                f"Howard certificate fails: the gain rises along {where}"
            )
        if (target_num, target_den) == (num, den) and values[producer] < (
            durations[producer] * den - num * height + values[consumer]
        ):
            raise AnalysisError(
                f"Howard certificate fails: the value inequality of "
                f"{where} does not hold"
            )
    if result.cycle_time != max(Fraction(*gain) for gain in gains.values()):
        raise AnalysisError(
            f"Howard certificate fails: the cycle time {result.cycle_time} "
            "is not the largest gain"
        )
