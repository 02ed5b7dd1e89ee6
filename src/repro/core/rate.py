"""Computation rates (Appendix A.7, Theorem 5.2.2, Section 6).

The *computation rate* of a transition is its average firings per time
unit; for a live timed marked graph every transition shares the same
rate, the reciprocal of the cycle time::

    gamma = min over simple cycles C of  M(C) / Ω(C)

This is **time-optimal**: no machine model can do better, and an ideal
machine (unbounded parallelism, earliest firing) achieves it.  For the
SDSP-SCP-PN the single issue slot adds the resource bound of
Theorem 5.2.2: no instruction can fire more often than ``1/n``.

>>> from repro.loops import parse_loop, translate
>>> from repro.core import build_sdsp_pn
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> optimal_rate(pn)             # one-cycle recurrence: rate 1
Fraction(1, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import List

from ..errors import AnalysisError
from ..obs.metrics import timed
from ..petrinet.behavior import CyclicFrustum
from ..petrinet.howard import check_certificate
from ..petrinet.marked_graph import SimpleCycle, expand_node_cycle
from .bounds import CRITICAL_CYCLE_BUDGET
from .scp import SdspScpNet
from .sdsp_pn import SdspPetriNet, build_sdsp_pn

__all__ = [
    "CriticalCycles",
    "optimal_rate",
    "critical_cycles",
    "scp_rate_upper_bound",
    "dependence_cycle_time",
    "dependence_bound_rate",
    "frustum_rate",
    "pipeline_utilization",
]


@dataclass(frozen=True)
class CriticalCycles:
    """The critical cycles of an SDSP-PN, as ``repro analyze`` and
    ``repro explain`` list them.

    ``critical_cycles`` holds the structural cycles of ratio ``α``,
    each canonically rotated and sorted like
    :meth:`~repro.petrinet.marked_graph.MarkedGraphView.simple_cycles`;
    ``critical_self_loops`` the transitions whose implicit self-loop
    attains ``α``, in net order.  Together they hold at most
    :data:`~repro.core.bounds.CRITICAL_CYCLE_BUDGET` cycles; ``capped``
    is True when the net has more, and then the listing is a subset.
    """

    cycle_time: Fraction
    critical_cycles: List[SimpleCycle]
    critical_self_loops: List[str]
    capped: bool = False

    @property
    def computation_rate(self) -> Fraction:
        return 1 / self.cycle_time

    @property
    def transitions_on_critical_cycles(self) -> frozenset:
        names = set(self.critical_self_loops)
        for cycle in self.critical_cycles:
            names.update(cycle.transitions)
        return frozenset(names)


@timed("core.critical_cycles")
def critical_cycles(pn: SdspPetriNet) -> CriticalCycles:
    """The critical cycles of an SDSP-PN, listed from Howard's critical
    graph (:attr:`~repro.core.sdsp_pn.SdspPetriNet.howard`, shared with
    the compile): the cycles whose edges are all tight under the
    converged potentials are exactly the cycles of ratio ``α``.

    The walk is the one :func:`~repro.core.bounds.count_critical_cycles`
    takes, expanded over the tight parallel places of each hop, and it
    stops past :data:`~repro.core.bounds.CRITICAL_CYCLE_BUDGET` cycles
    as the count does (a DOALL body's critical graph is the whole net).
    Before listing, Howard's certificate is checked against the net
    (:func:`~repro.petrinet.howard.check_certificate`), and every listed
    cycle must have ratio ``α``; a failure raises
    :class:`~repro.errors.AnalysisError`.  Both checks are linear in the
    net and the listing.
    """
    view = pn.view()
    howard = pn.howard
    alpha = howard.cycle_time
    check_certificate(view, pn.durations, howard)
    # each critical cycle, or a self-loop's transition; one past the
    # budget shows the cap
    found = (
        cycle
        for transitions, places in howard.critical_node_cycles()
        for cycle in (
            expand_node_cycle(transitions, places) if places else transitions
        )
    )
    listed = list(islice(found, CRITICAL_CYCLE_BUDGET + 1))
    capped = len(listed) > CRITICAL_CYCLE_BUDGET
    del listed[CRITICAL_CYCLE_BUDGET:]
    self_loops = [entry for entry in listed if isinstance(entry, str)]
    cycles = sorted(
        (entry for entry in listed if isinstance(entry, SimpleCycle)),
        key=lambda c: (c.transitions, c.places),
    )
    for cycle in cycles:
        if cycle.cycle_time(view.initial, pn.durations) != alpha:
            raise AnalysisError(
                "critical cycle through " + " -> ".join(cycle.transitions)
                + f" does not have Howard's cycle time {alpha}"
            )
    for transition in self_loops:
        if pn.durations[transition] != alpha:
            raise AnalysisError(
                f"the self-loop of {transition!r} does not have Howard's "
                f"cycle time {alpha}"
            )
    return CriticalCycles(alpha, cycles, self_loops, capped)


@timed("core.optimal_rate")
def optimal_rate(pn: SdspPetriNet) -> Fraction:
    """The time-optimal computation rate ``γ`` of the loop: the hard
    upper bound the critical cycles impose on any schedule.

    Computed as ``1 / α`` with the cycle time ``α`` from Howard's
    policy iteration (:mod:`repro.petrinet.howard`) — exact
    :class:`~fractions.Fraction` arithmetic, near-linear practical
    time, no cycle enumeration.  The run is kept on the net
    (:attr:`~repro.core.sdsp_pn.SdspPetriNet.howard`), so the bounds
    and ``repro explain`` read the same result."""
    return 1 / pn.howard.cycle_time


@timed("core.dependence_cycle_time")
def dependence_cycle_time(source, include_io: bool = True,
                          durations=None) -> Fraction:
    """Cycle time of the *dependence subnet*: data places only, the
    acknowledgement discipline stripped.

    Howard's policy iteration models non-reentrance as an implicit
    self-loop of weight ``τ(t)`` and height 1 per transition, so the
    analysis stays well-defined even when the data arcs alone are
    acyclic (a DOALL body): the answer is then just ``max τ``.  For a
    loop-carried body it is the classic recurrence bound
    ``max over data cycles of Ω(C)/M(C)``.

    ``source`` is an :class:`~repro.core.sdsp.Sdsp` or a raw
    :class:`~repro.dataflow.graph.DataflowGraph` (validated on the way
    in), mirroring :func:`~repro.core.sdsp_pn.build_sdsp_pn`.
    """
    pn = build_sdsp_pn(
        source,
        durations=durations,
        include_acks=False,
        include_io=include_io,
    )
    return pn.howard.cycle_time


def dependence_bound_rate(source, include_io: bool = True,
                          durations=None) -> Fraction:
    """The dependence bound ``γ* = 1 / dependence_cycle_time``: the
    hard per-base-instruction rate ceiling the loop-carried dependences
    impose, independent of any buffering discipline.  This is the rate
    the unrolled loop closes on (``compile_loop(..., unroll="auto")``
    picks the smallest factor that reaches it exactly)."""
    return 1 / dependence_cycle_time(
        source, include_io=include_io, durations=durations
    )


def scp_rate_upper_bound(scp: SdspScpNet) -> Fraction:
    """Theorem 5.2.2: with ``n`` instructions sharing one clean
    pipeline, no instruction's rate can exceed ``1/n`` — one issue slot
    per cycle divided among ``n`` instructions per iteration.  This
    bound is independent of the conflict-resolution policy."""
    return Fraction(1, scp.size)


def frustum_rate(frustum: CyclicFrustum, instruction: str) -> Fraction:
    """Measured steady-state rate of one instruction (the Tables 1/2
    *computation rate* column): frustum firing count over frustum
    length.

    Analysis-path failures surface as :class:`~repro.errors.
    AnalysisError`: an empty frustum has no steady state to measure,
    and an instruction the frustum never recorded is a caller bug (the
    old behavior silently reported rate 0 for a typo'd name).
    """
    if frustum.length == 0:
        raise AnalysisError(
            f"cannot measure the rate of {instruction!r}: the frustum "
            "is empty (no steady-state period was detected)"
        )
    if instruction not in frustum.firing_counts:
        raise AnalysisError(
            f"instruction {instruction!r} does not fire in the frustum; "
            f"known instructions: {sorted(frustum.firing_counts)}"
        )
    return frustum.computation_rate(instruction)


def pipeline_utilization(scp: SdspScpNet, frustum: CyclicFrustum) -> Fraction:
    """Fraction of cycles the SCP issues an instruction in steady state
    (Table 2's *processor usage*): total instruction firings per
    frustum, times the 1-cycle issue slot, over the frustum length.

    Equals 1 exactly when the Theorem 5.2.2 bound is met.
    """
    if frustum.length == 0:
        raise AnalysisError(
            "cannot compute pipeline utilization on an empty frustum"
        )
    issue_cycles = sum(
        frustum.firing_counts.get(t, 0) for t in scp.sdsp_transitions
    )
    return Fraction(issue_cycles, frustum.length)
