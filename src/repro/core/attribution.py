"""Bottleneck attribution: per-transition utilization and slack
relative to the critical cycle (the ``repro dash`` analysis layer).

The paper's headline is that steady-state throughput is governed by the
critical cycle: the initiation period is ``p = Ω(C*)`` and no machine
can beat the rate ``min M(C)/Ω(C)``.  This module turns that theorem
into a per-transition diagnosis, the lens related work (Millo & de
Simone; Gaujal, Haar & Mairesse) uses for throughput analysis:

* **utilization** — the fraction of the steady-state period a
  transition spends firing: ``firings_per_frustum · τ(t) / p``;
* **slack** — how much ``τ(t)`` could grow before the cycle time (and
  hence ``Ω(C*)`` / the optimal rate) changes.  Growing ``τ(t)`` by
  ``δ`` moves every simple cycle ``C ∋ t`` to ratio
  ``(Ω(C)+δ)/M(C)``, and the implicit self-loop of Assumption A.6.1 to
  ``τ(t)+δ``; the cycle time is unchanged exactly while::

      δ  <=  min over C ∋ t  of  α·M(C) − Ω(C)

  (self-loop included with ``M = 1``).  Transitions on a critical
  cycle have slack **zero** — they *are* the bottleneck; every other
  transition's slack says how far it sits from mattering.

The minimum needs no list of cycles.  Give each edge of the transition
digraph the cost ``α·h − w`` (``h`` tokens on its place, ``w`` the
producer's execution time): a cycle costs ``α·M(C) − Ω(C)``, so slack
is the cheapest cycle through ``t``.  Howard's converged values are
potentials within each strongly connected component (its nodes share
one gain ``λ ≤ α``), which make every edge's reduced cost non-negative
without changing any cycle's cost, so one Dijkstra from ``t``
(:func:`repro.digraph.shortest_paths`) finds it.  Everything is exact
integer and rational arithmetic on the net's one Howard result
(:attr:`~repro.core.sdsp_pn.SdspPetriNet.howard`), so the dashboard's
numbers are unit-testable without rendering any HTML.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..digraph import shortest_paths
from ..errors import AnalysisError
from ..obs.metrics import timed
from ..petrinet.behavior import BehaviorGraph, CyclicFrustum
from .sdsp_pn import SdspPetriNet

__all__ = [
    "TransitionAttribution",
    "AttributionReport",
    "attribute_bottlenecks",
    "place_occupancy",
]


@dataclass(frozen=True)
class TransitionAttribution:
    """One transition's share of, and distance from, the bottleneck."""

    transition: str
    duration: int
    firings: int
    utilization: Fraction
    slack: Fraction
    on_critical_cycle: bool
    binding_cycle: Tuple[str, ...]

    @property
    def is_bottleneck(self) -> bool:
        return self.slack == 0


@dataclass
class AttributionReport:
    """The full per-transition breakdown for one SDSP-PN frustum."""

    cycle_time: Fraction
    period: int
    critical_transitions: frozenset
    transitions: List[TransitionAttribution]

    def bottlenecks(self) -> List[str]:
        """Zero-slack transitions — exactly the ones on ``C*``."""
        return [t.transition for t in self.transitions if t.is_bottleneck]

    def by_name(self, transition: str) -> TransitionAttribution:
        for entry in self.transitions:
            if entry.transition == transition:
                return entry
        raise AnalysisError(f"unknown transition {transition!r}")


@timed("core.attribute_bottlenecks")
def attribute_bottlenecks(
    pn: SdspPetriNet, frustum: CyclicFrustum
) -> AttributionReport:
    """Utilization and slack for every transition of an SDSP-PN.

    Slack reads the net's Howard result; each transition's
    ``binding_cycle`` is the cheapest cycle the Dijkstra from it closes
    (its implicit self-loop on a tie, else the one that sorts first).
    Rows come back sorted bottlenecks-first (ascending slack, then
    descending utilization, then name) — the order a dashboard wants.
    """
    alpha = pn.howard.cycle_time
    slack, binding = _slack(pn)
    critical = frozenset(t for t, margin in slack.items() if margin == 0)

    if frustum.length <= 0:
        raise AnalysisError("empty frustum has no utilization")

    rows: List[TransitionAttribution] = []
    for transition in pn.net.transition_names:
        firings = frustum.firing_counts.get(transition, 0)
        rows.append(
            TransitionAttribution(
                transition=transition,
                duration=pn.durations[transition],
                firings=firings,
                utilization=Fraction(
                    firings * pn.durations[transition], frustum.length
                ),
                slack=slack[transition],
                on_critical_cycle=transition in critical,
                binding_cycle=binding[transition],
            )
        )
    rows.sort(key=lambda r: (r.slack, -r.utilization, r.transition))
    return AttributionReport(
        cycle_time=alpha,
        period=frustum.length,
        critical_transitions=critical,
        transitions=rows,
    )


def _slack(
    pn: SdspPetriNet,
) -> Tuple[Dict[str, Fraction], Dict[str, Tuple[str, ...]]]:
    """Each transition's slack ``min over C ∋ t of α·M(C) − Ω(C)`` and
    the cycle attaining it, canonically rotated.

    With ``α = a/b`` and a gain ``num/den`` shared by both ends, an
    edge ``u → v`` of height ``h`` costs
    ``(a·h − b·τ(u))·den + b·(V(u) − V(v))`` — the reduced cost scaled
    by ``b·den``, an integer that Howard's optimality inequality makes
    non-negative.  A cycle through ``t`` stays in ``t``'s component,
    among nodes of ``t``'s gain, so edges between gains are left out.
    """
    howard = pn.howard
    alpha = howard.cycle_time
    a, b = alpha.numerator, alpha.denominator
    gains, values = howard.gains, howard.values
    cost: Dict[str, Dict[str, int]] = {t: {} for t in pn.net.transition_names}
    closing: Dict[str, Dict[str, int]] = {t: {} for t in pn.net.transition_names}
    for place in pn.net.place_names:
        (u,) = pn.net.input_transitions(place)
        (v,) = pn.net.output_transitions(place)
        if gains[u] != gains[v]:
            continue
        den = gains[u][1]
        reduced = (a * pn.initial[place] - b * pn.durations[u]) * den + b * (
            values[u] - values[v]
        )
        if reduced < cost[u].get(v, reduced + 1):
            cost[u][v] = closing[v][u] = reduced
    slack: Dict[str, Fraction] = {}
    binding: Dict[str, Tuple[str, ...]] = {}
    for t in pn.net.transition_names:
        distance, previous = shortest_paths(cost, t)
        # the implicit self-loop (M = 1, Ω = τ) wins every tie, then
        # the cycle that sorts first among those Dijkstra closes
        options = [((a - b * pn.durations[t]) * gains[t][1], 0, (t,))]
        options += [
            (distance[u] + reduced, 1, _closed_cycle(t, u, previous))
            for u, reduced in closing[t].items()
            if u in distance
        ]
        best, _, binding[t] = min(options)
        slack[t] = Fraction(best, b * gains[t][1])
    return slack, binding


def _closed_cycle(
    t: str, last: str, previous: Dict[str, str]
) -> Tuple[str, ...]:
    """The cycle a shortest path from ``t`` to ``last`` closes with the
    edge ``last → t``, canonically rotated."""
    cycle = [t]
    while last != t:
        cycle.append(last)
        last = previous[last]
    cycle[1:] = reversed(cycle[1:])
    start = min(range(len(cycle)), key=cycle.__getitem__)
    return tuple(cycle[start:] + cycle[:start])


def _post_firing_marking(behavior: BehaviorGraph, step) -> Dict[str, int]:
    """The marking *after* the step's firings consumed their inputs —
    what every quiet tick until the next event observes."""
    from ..petrinet.behavior import TransitionInstance

    marking = {place: step.state.marking[place] for place in step.state.marking}
    for transition in step.fired:
        instance = TransitionInstance(transition, step.time)
        consumed = behavior.consumptions.get(instance)
        if consumed is None:
            raise AnalysisError(
                "occupancy over a sparse (event-driven) behavior graph "
                "needs consumption arcs; re-run detection with "
                "record_arcs=True"
            )
        for place_instance in consumed:
            marking[place_instance.place] -= 1
            if marking[place_instance.place] == 0:
                del marking[place_instance.place]
    return marking


def place_occupancy(
    behavior: BehaviorGraph,
    frustum: CyclicFrustum,
    places: Optional[Sequence[str]] = None,
) -> Dict[str, List[int]]:
    """Token count per place at every time step of the frustum window.

    Returns one series per place, one entry per tick of
    ``[start_time, repeat_time)`` — the data behind the dashboard's
    occupancy sparklines.  ``places`` restricts (and orders) the
    output; by default every place occupied anywhere in the window is
    included, sorted by name.

    Works for both engines: the step engine records every tick, so each
    entry reads straight off a snapshot; the event engine records only
    event ticks, so quiet ticks are forward-filled with the post-firing
    marking of the most recent event (between events nothing fires and
    nothing completes, so the marking is constant — the gap theorem of
    :mod:`repro.petrinet.event_sim`).
    """
    start, stop = frustum.start_time, frustum.repeat_time
    relevant = [step for step in behavior.steps if step.time < stop]
    if not relevant or stop <= start:
        raise AnalysisError(
            "behavior graph has no steps inside the frustum window"
        )
    by_time = {step.time: step for step in relevant}
    last_before = None
    for step in relevant:
        if step.time >= start:
            break
        last_before = step
    fill: Optional[Dict[str, int]] = None  # computed lazily on first gap
    fill_source = last_before
    columns: List[Dict[str, int]] = []
    for tick in range(start, stop):
        step = by_time.get(tick)
        if step is not None:
            columns.append(
                {place: step.state.marking[place] for place in step.state.marking}
            )
            fill, fill_source = None, step
        else:
            if fill is None:
                if fill_source is None:
                    raise AnalysisError(
                        "behavior graph has no steps inside the frustum "
                        "window"
                    )
                fill = _post_firing_marking(behavior, fill_source)
            columns.append(dict(fill))
    if places is None:
        seen = set()
        for column in columns:
            seen.update(column)
        names: Sequence[str] = sorted(seen)
    else:
        names = places
    return {
        place: [column.get(place, 0) for column in columns]
        for place in names
    }
