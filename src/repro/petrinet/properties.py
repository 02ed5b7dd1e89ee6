"""Behavioural and structural Petri-net properties (Appendix A.3/A.4).

These are the definitions the paper's correctness claims rest on:

* **liveness** — from every reachable marking, every transition can
  eventually fire (the modelled system never deadlocks);
* **boundedness / safety** — token counts stay below a bound ``N``
  (safe: ``N = 1``), so the system has finitely many states;
* **persistence** — once two transitions are enabled together, firing
  one never disables the other (no choice); marked graphs are always
  persistent;
* **consistency** — a non-zero firing-count assignment reproduces the
  marking (Theorems A.4.1/A.4.2), the precondition for a *cycle time*
  to be meaningful.

All behavioural checks run on the explored reachability graph and are
therefore exact for bounded nets (every net this library builds is live
and safe by construction — the checks exist to *verify* that, and are
exercised heavily by the test suite).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import AnalysisError
from .marking import Marking, enabled_transitions, fire
from .net import PetriNet
from .reachability import ReachabilityGraph, explore

__all__ = [
    "is_live",
    "is_bounded",
    "bound_of",
    "is_safe",
    "is_persistent",
    "is_consistent",
    "consistent_firing_vector",
    "deadlocked_markings",
]


def _graph(
    net: PetriNet, initial: Marking, graph: Optional[ReachabilityGraph]
) -> ReachabilityGraph:
    if graph is None:
        graph = explore(net, initial)
    if not graph.complete:
        raise AnalysisError(
            "reachability exploration did not terminate (net unbounded or "
            "budget exceeded); behavioural properties are undecidable here"
        )
    return graph


def is_live(
    net: PetriNet,
    initial: Marking,
    graph: Optional[ReachabilityGraph] = None,
) -> bool:
    """Exact liveness on a bounded net.

    A marking is live iff from *every* reachable marking, every
    transition can still be fired eventually.  On the finite
    reachability graph this holds iff from every marking, every
    transition's firing is reachable.  We check it by computing, per
    transition ``t``, the set of markings that can reach a firing of
    ``t`` (backward closure), and requiring it to cover all markings.
    """
    graph = _graph(net, initial, graph)
    markings = graph.markings
    index = {m: i for i, m in enumerate(markings)}
    predecessors: Dict[int, List[int]] = {i: [] for i in range(len(markings))}
    fires_at: Dict[str, List[int]] = {t: [] for t in net.transition_names}
    for source, transition, target in graph.edges:
        predecessors[index[target]].append(index[source])
        fires_at[transition].append(index[source])

    for transition in net.transition_names:
        seeds = fires_at[transition]
        if not seeds:
            return False
        can_reach: Set[int] = set()
        stack = list(seeds)
        while stack:
            node = stack.pop()
            if node in can_reach:
                continue
            can_reach.add(node)
            stack.extend(predecessors[node])
        if len(can_reach) != len(markings):
            return False
    return True


def is_bounded(
    net: PetriNet,
    initial: Marking,
    bound: Optional[int] = None,
    graph: Optional[ReachabilityGraph] = None,
) -> bool:
    """True iff every place stays at or below ``bound`` tokens in every
    reachable marking (any finite bound when ``bound`` is None)."""
    if graph is None:
        graph = explore(net, initial)
    if graph.unbounded:
        return False
    if graph.truncated:
        raise AnalysisError("exploration budget exceeded; increase max_markings")
    if bound is None:
        return True
    return all(
        marking[place] <= bound
        for marking in graph.markings
        for place in marking
    )


def bound_of(
    net: PetriNet,
    initial: Marking,
    graph: Optional[ReachabilityGraph] = None,
) -> Dict[str, int]:
    """The exact per-place bound over the forward marking class."""
    graph = _graph(net, initial, graph)
    return {p: graph.max_tokens(p) for p in net.place_names}


def is_safe(
    net: PetriNet,
    initial: Marking,
    graph: Optional[ReachabilityGraph] = None,
) -> bool:
    """Safety is boundedness with ``N = 1``."""
    return is_bounded(net, initial, bound=1, graph=graph)


def is_persistent(
    net: PetriNet,
    initial: Marking,
    graph: Optional[ReachabilityGraph] = None,
) -> bool:
    """Exact persistence check on the reachability graph.

    For every reachable marking ``M`` and distinct transitions ``t1``,
    ``t2`` both enabled at ``M``, firing ``t1`` must leave ``t2``
    enabled.  Marked graphs pass trivially (each place feeds a single
    transition); nets with structural conflict — like the SDSP-SCP-PN
    with its shared run place — generally fail, which is exactly why
    the paper needs Assumption 5.2.1 there.
    """
    graph = _graph(net, initial, graph)
    for marking in graph.markings:
        enabled = enabled_transitions(net, marking)
        for t1 in enabled:
            after = fire(net, marking, t1)
            for t2 in enabled:
                if t2 == t1:
                    continue
                if not all(after[p] > 0 for p in net.input_places(t2)):
                    return False
    return True


def deadlocked_markings(
    net: PetriNet,
    initial: Marking,
    graph: Optional[ReachabilityGraph] = None,
) -> List[Marking]:
    """Reachable markings that enable no transition at all."""
    graph = _graph(net, initial, graph)
    return [m for m in graph.markings if not enabled_transitions(net, m)]


def consistent_firing_vector(net: PetriNet) -> Optional[Dict[str, int]]:
    """A strictly positive integer firing vector ``x`` with ``C·x = 0``.

    Consistency (Appendix A.4) asks for a non-zero integer assignment
    per transition such that token production balances consumption at
    every place.  We search for a strictly positive rational solution
    with :func:`scipy.optimize.linprog` (feasibility of ``C x = 0``,
    ``x >= 1``) and scale it to integers.  Returns ``None`` when no such
    vector exists.
    """
    from fractions import Fraction

    import numpy as np
    from scipy.optimize import linprog

    transitions = net.transition_names
    if not transitions:
        return None
    incidence = np.array(net.incidence_matrix(), dtype=float)
    n = len(transitions)
    if incidence.size == 0:
        # No places: every positive vector is trivially consistent.
        return {t: 1 for t in transitions}
    result = linprog(
        c=np.ones(n),
        A_eq=incidence,
        b_eq=np.zeros(incidence.shape[0]),
        bounds=[(1, None)] * n,
        method="highs",
    )
    if not result.success:
        return None
    fractions = [Fraction(value).limit_denominator(10**6) for value in result.x]
    common = 1
    for fraction in fractions:
        common = common * fraction.denominator // np.gcd(
            common, fraction.denominator
        )
    vector = {
        t: int(f * common) for t, f in zip(transitions, fractions)
    }
    # Normalise by the gcd for a canonical minimal representative.
    g = 0
    for value in vector.values():
        g = int(np.gcd(g, value))
    if g > 1:
        vector = {t: v // g for t, v in vector.items()}
    return vector


def is_consistent(net: PetriNet) -> bool:
    """True iff the net admits a strictly positive firing vector in the
    kernel of its incidence matrix (Theorem A.4.1 equivalent form)."""
    return consistent_firing_vector(net) is not None
