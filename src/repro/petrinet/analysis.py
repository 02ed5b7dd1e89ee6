"""Cycle-time and critical-cycle analysis of timed marked graphs
(Appendix A.7).

The *cycle time* of a live timed marked graph is::

    alpha = max over simple cycles C of  Ω(C) / M(C)

where ``Ω(C)`` sums the execution times of the cycle's transitions and
``M(C)`` its initial tokens; the *computation rate* is ``1 / alpha`` and
the maximising cycles are the **critical cycles** whose structure
drives everything in the paper: the steady-state period, the schedule,
the polynomial bounds, and the storage optimiser.

Three independent algorithms are provided as test oracles:

* :func:`cycle_time_by_enumeration` — exact, enumerates all simple
  cycles (fine for loop bodies; exponential in general);
* :func:`cycle_time_lawler` — Lawler's parametric search: binary-search
  the ratio ``λ`` and test for a positive-weight cycle under edge
  weights ``τ(u) − λ·M(p)`` with exact rational arithmetic, then snap
  to the bounded-denominator rational the answer must be;
* :mod:`repro.petrinet.linprog` — the LP formulation (Magott [30]).

(The production path, Howard's policy iteration, lives in
:mod:`repro.petrinet.howard`; every command reads it, and the tests
cross-check it against all three.  Its critical graph and potentials
answer what enumeration used to: the bounds' critical-cycle count,
the listing of ``repro analyze`` and ``repro explain``, the dash's
slack and every cycle time of ``repro storage``.
:func:`critical_cycle_report` and :func:`cycle_metrics` are the
oracles the property tests hold those answers against; no module
under ``src/repro`` calls this one.)

Per Appendix A.7 the implicit self-loops of Assumption A.6.1 also count
as cycles: a transition ``t`` contributes a cycle of ratio ``τ(t)/1``,
so the cycle time is never below the longest execution time.

>>> from repro.petrinet import PetriNet, Marking, MarkedGraphView
>>> net = PetriNet(name="ring")
>>> for t in ("a", "b"):
...     _ = net.add_transition(t)
>>> for place, (src, dst), tokens in [
...     ("p", ("a", "b"), 1), ("q", ("b", "a"), 0)]:
...     _ = net.add_place(place)
...     _ = net.add_arc(src, place)
...     _ = net.add_arc(place, dst)
>>> view = MarkedGraphView(net, Marking({"p": 1}))
>>> cycle_time_by_enumeration(view, {"a": 2, "b": 3})  # (2+3)/1 token
Fraction(5, 1)
>>> cycle_time_lawler(view, {"a": 2, "b": 3})
Fraction(5, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import AnalysisError
from .marked_graph import MarkedGraphView, SimpleCycle
from .marking import Marking
from .net import PetriNet

__all__ = [
    "CycleMetrics",
    "CriticalCycleReport",
    "cycle_metrics",
    "cycle_time_by_enumeration",
    "critical_cycle_report",
    "cycle_time_lawler",
    "computation_rate",
]


@dataclass(frozen=True)
class CycleMetrics:
    """A simple cycle with its token sum, value sum and ratio."""

    cycle: SimpleCycle
    tokens: int
    value: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.value, self.tokens)


@dataclass
class CriticalCycleReport:
    """Everything the rest of the library wants to know about cycles.

    ``critical_cycles`` lists the structural cycles achieving the cycle
    time; ``critical_self_loops`` lists transitions whose implicit
    self-loop achieves it (possible when one operation is slower than
    every recurrence).  ``transitions_on_critical_cycles`` is the union
    used by the multiple-critical-cycle bound (Theorem 4.2.2).
    """

    cycle_time: Fraction
    metrics: List[CycleMetrics]
    critical_cycles: List[SimpleCycle]
    critical_self_loops: List[str]

    @property
    def computation_rate(self) -> Fraction:
        return 1 / self.cycle_time

    @property
    def transitions_on_critical_cycles(self) -> frozenset:
        names = set(self.critical_self_loops)
        for cycle in self.critical_cycles:
            names.update(cycle.transitions)
        return frozenset(names)

    @property
    def has_unique_critical_cycle(self) -> bool:
        return len(self.critical_cycles) + len(self.critical_self_loops) == 1


def cycle_metrics(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> List[CycleMetrics]:
    """Metrics for every structural simple cycle; raises
    :class:`AnalysisError` on a token-free cycle (a deadlocked net has
    no cycle time)."""
    result = []
    for cycle in view.simple_cycles():
        tokens = cycle.token_sum(view.initial)
        if tokens == 0:
            raise AnalysisError(
                "cycle through "
                + " -> ".join(cycle.transitions)
                + " carries no token: the net is not live and has no cycle time"
            )
        result.append(
            CycleMetrics(cycle, tokens, cycle.value_sum(durations))
        )
    return result


def critical_cycle_report(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> CriticalCycleReport:
    """Exhaustive critical-cycle analysis (enumeration algorithm)."""
    metrics = cycle_metrics(view, durations)
    best = Fraction(0)
    for transition in view.net.transition_names:
        best = max(best, Fraction(durations[transition], 1))
    for m in metrics:
        best = max(best, m.ratio)
    if best == 0:
        raise AnalysisError("net has no transitions; cycle time undefined")
    critical = [m.cycle for m in metrics if m.ratio == best]
    self_loops = [
        t
        for t in view.net.transition_names
        if Fraction(durations[t], 1) == best
    ]
    return CriticalCycleReport(best, metrics, critical, self_loops)


def cycle_time_by_enumeration(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> Fraction:
    """Cycle time via exhaustive simple-cycle enumeration."""
    return critical_cycle_report(view, durations).cycle_time


def computation_rate(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> Fraction:
    """Optimal computation rate ``γ = 1 / cycle time`` — the maximum
    achievable firing rate under *any* machine model (Appendix A.7)."""
    return 1 / cycle_time_by_enumeration(view, durations)


# ---------------------------------------------------------------------------
# Lawler's parametric search
# ---------------------------------------------------------------------------


def _has_positive_cycle(
    nodes: Sequence[str],
    edges: Sequence[Tuple[str, str, Fraction]],
    strict: bool = True,
) -> bool:
    """Bellman–Ford longest-path relaxation: does the graph contain a
    cycle of total weight > 0 (or >= 0 off the trivial zero-edge case
    when ``strict`` is False)?

    Distances start at zero everywhere, which is equivalent to a
    virtual source with zero-weight edges to all nodes, so cycles are
    found regardless of reachability.
    """
    distance: Dict[str, Fraction] = {node: Fraction(0) for node in nodes}
    for _ in range(len(nodes)):
        changed = False
        for source, target, weight in edges:
            candidate = distance[source] + weight
            if candidate > distance[target]:
                distance[target] = candidate
                changed = True
        if not changed:
            return False
    # One more pass: any further relaxation proves a positive cycle.
    for source, target, weight in edges:
        if distance[source] + weight > distance[target]:
            return True
    return False


def _ratio_edges(
    view: MarkedGraphView,
    durations: Mapping[str, int],
    lam: Fraction,
) -> List[Tuple[str, str, Fraction]]:
    """Edges weighted ``τ(u) − λ·M(p)`` (plus the implicit self-loops
    ``τ(u) − λ``); a positive cycle exists iff some cycle has ratio
    greater than ``λ``."""
    edges: List[Tuple[str, str, Fraction]] = []
    initial = view.initial
    for place in view.net.place_names:
        (producer,) = view.net.input_transitions(place)
        (consumer,) = view.net.output_transitions(place)
        weight = Fraction(durations[producer]) - lam * initial[place]
        edges.append((producer, consumer, weight))
    for transition in view.net.transition_names:
        edges.append(
            (transition, transition, Fraction(durations[transition]) - lam)
        )
    return edges


def cycle_time_lawler(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> Fraction:
    """Cycle time by parametric (binary) search over the ratio.

    The answer is a rational ``Ω(C)/M(C)`` whose denominator is at most
    the total token count ``D`` (self-loops give denominator 1), and two
    distinct candidate ratios differ by at least ``1/D²``; searching to
    below that gap and snapping with ``limit_denominator`` recovers the
    exact value, which is then verified with exact arithmetic.
    """
    nodes = list(view.net.transition_names)
    if not nodes:
        raise AnalysisError("net has no transitions; cycle time undefined")
    initial = view.initial
    total_tokens = max(
        1, sum(initial[p] for p in view.net.place_names)
    )
    # Self-loops contribute denominator-1 ratios.
    max_denominator = total_tokens
    total_value = sum(durations[t] for t in nodes)
    low = Fraction(max(durations[t] for t in nodes))  # self-loop floor
    high = Fraction(total_value)  # any cycle ratio <= total value / 1

    if not _has_positive_cycle(nodes, _ratio_edges(view, durations, low)):
        # No structural cycle beats the slowest transition's self-loop.
        return low

    gap = Fraction(1, max_denominator * max_denominator * 2)
    while high - low > gap:
        mid = (low + high) / 2
        if _has_positive_cycle(nodes, _ratio_edges(view, durations, mid)):
            low = mid
        else:
            high = mid
    candidate = Fraction((low + high) / 2).limit_denominator(max_denominator)
    # Exact verification: no cycle exceeds the candidate, and lowering it
    # by the minimal gap re-admits one (so it is attained).
    if _has_positive_cycle(nodes, _ratio_edges(view, durations, candidate)):
        raise AnalysisError(
            f"parametric search failed to verify cycle time {candidate}"
        )
    just_below = candidate - gap
    if not _has_positive_cycle(nodes, _ratio_edges(view, durations, just_below)):
        raise AnalysisError(
            f"cycle time {candidate} is not attained by any cycle"
        )
    return candidate
