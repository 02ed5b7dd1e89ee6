"""Linear-programming formulation of the cycle-time problem.

Appendix A.7 notes (citing Magott [30]) that enumerating simple cycles
can be exponential, while the cycle time of a timed marked graph can be
found in polynomial time by linear programming.  The classical LP is
the *periodic schedule* formulation: a period ``Φ`` is feasible iff
there exist start offsets ``s(t)`` such that for every place
``p : u → v`` with ``M(p)`` initial tokens

    s(v) + Φ·M(p)  >=  s(u) + τ(u)

(the token produced by ``u``'s firing in iteration ``i`` is consumed by
``v``'s firing in iteration ``i + M(p)``).  Minimising ``Φ`` subject to
these constraints yields exactly ``max_C Ω(C)/M(C)`` — summing the
constraints around any cycle cancels the offsets — and the optimal
offsets are themselves a rate-optimal static schedule, which the rest
of the library uses as an independent cross-check of the schedules
derived from cyclic frustums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional

from ..errors import AnalysisError
from .marked_graph import MarkedGraphView

__all__ = ["PeriodicScheduleLP", "cycle_time_lp"]


@dataclass
class PeriodicScheduleLP:
    """Result of the LP: the optimal period and a witness schedule.

    ``offsets`` maps each transition to a rational start offset ``s(t)``;
    firing ``t`` at times ``s(t) + i·period`` for ``i = 0, 1, ...``
    satisfies every dependence (this is checked by the test suite, not
    assumed).
    """

    period: Fraction
    offsets: Dict[str, Fraction]

    @property
    def computation_rate(self) -> Fraction:
        return 1 / self.period


def cycle_time_lp(
    view: MarkedGraphView,
    durations: Mapping[str, int],
    include_self_loops: bool = True,
) -> PeriodicScheduleLP:
    """Solve the periodic-schedule LP with HiGHS and snap the period to
    the exact rational it must be (denominator bounded by the net's
    total token count).

    ``include_self_loops`` adds the non-reentrance constraints
    ``Φ >= τ(t)`` of Assumption A.6.1; disable only to study the
    relaxed model.
    """
    import numpy as np
    from scipy.optimize import linprog

    transitions = list(view.net.transition_names)
    if not transitions:
        raise AnalysisError("net has no transitions; cycle time undefined")
    index = {t: i for i, t in enumerate(transitions)}
    n = len(transitions)
    # Variables: s_0 .. s_{n-1}, phi  (phi last).
    rows = []
    bounds_rhs = []
    initial = view.initial
    for place in view.net.place_names:
        (producer,) = view.net.input_transitions(place)
        (consumer,) = view.net.output_transitions(place)
        # s(u) - s(v) - phi * M(p) <= -tau(u)
        row = np.zeros(n + 1)
        row[index[producer]] += 1.0
        row[index[consumer]] -= 1.0
        row[n] = -float(initial[place])
        rows.append(row)
        bounds_rhs.append(-float(durations[producer]))
    if include_self_loops:
        for transition in transitions:
            row = np.zeros(n + 1)
            row[n] = -1.0
            rows.append(row)
            bounds_rhs.append(-float(durations[transition]))

    cost = np.zeros(n + 1)
    cost[n] = 1.0
    # Offsets are free; pin the first to zero to remove the translation
    # degree of freedom (improves solver conditioning).
    variable_bounds = [(None, None)] * n + [(0, None)]
    variable_bounds[0] = (0, 0)

    result = linprog(
        c=cost,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(bounds_rhs) if rows else None,
        bounds=variable_bounds,
        method="highs",
    )
    if not result.success:
        raise AnalysisError(f"cycle-time LP failed: {result.message}")

    total_tokens = max(1, sum(initial[p] for p in view.net.place_names))
    period = Fraction(float(result.x[n])).limit_denominator(total_tokens)
    lcm = int(np.lcm(period.denominator, 1))
    # Offsets are rationals over a modest denominator; snap generously.
    offsets = {
        t: Fraction(float(result.x[index[t]])).limit_denominator(
            total_tokens * max(1, lcm) * 64
        )
        for t in transitions
    }
    _verify_periodic_schedule(view, durations, period, offsets, include_self_loops)
    return PeriodicScheduleLP(period, offsets)


def _verify_periodic_schedule(
    view: MarkedGraphView,
    durations: Mapping[str, int],
    period: Fraction,
    offsets: Dict[str, Fraction],
    include_self_loops: bool,
) -> None:
    """Exact feasibility check of the snapped LP solution; raises
    :class:`AnalysisError` if snapping broke a constraint."""
    initial = view.initial
    for place in view.net.place_names:
        (producer,) = view.net.input_transitions(place)
        (consumer,) = view.net.output_transitions(place)
        lhs = offsets[consumer] + period * initial[place]
        rhs = offsets[producer] + durations[producer]
        if lhs < rhs:
            raise AnalysisError(
                f"LP schedule violates place {place!r}: "
                f"{lhs} < {rhs} (period {period})"
            )
    if include_self_loops:
        for transition, duration in durations.items():
            if period < duration:
                raise AnalysisError(
                    f"period {period} below execution time of {transition!r}"
                )
