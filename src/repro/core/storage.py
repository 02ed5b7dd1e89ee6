"""Minimum storage allocation under time-optimal scheduling
(Section 6, Figure 4).

Every pair of data/acknowledgement arcs costs one storage location, so
the default allocation of an SDSP with ``m`` data arcs is ``m``
locations.  The *balancing ratio* of a cycle ``C`` is ``M(C)/|C|``
(initial tokens over node count, unit execution times); the optimal
computation rate of the loop is the minimum balancing ratio, achieved
on the critical cycles.  Cycles made entirely of data arcs are fixed —
their ratio cannot change without changing the program — but
acknowledgement arcs are the compiler's to place: a *slacker*
acknowledgement that returns from the end of a chain of forward arcs
to its start covers the whole chain with **one** location, creating a
cycle whose balancing ratio is ``1/(L+1)`` for a chain of ``L`` arcs.
As long as that ratio stays at or above the critical ratio, the
optimal rate is untouched while storage shrinks — exactly the
Figure 4 rewrite, where loop L2's cycles ``ABA`` and ``BDB`` (ratio
1/2, two locations) merge into ``ABDA`` (ratio 1/3 = critical, one
location), saving 1/6 of the loop's storage.

The optimiser below is a greedy maximum-length path cover over the
forward data arcs with the chain length capped by the critical ratio;
:func:`apply_allocation` rebuilds the Petri net with the merged
acknowledgements, and :func:`verify_allocation` re-runs the cycle-time
analysis to *prove* the rate is preserved (and the net still live and
safe) rather than trusting the construction.  Every cycle time here is
Howard's (:func:`~repro.petrinet.howard.howard_analysis`), on the net
and on each rebuilt one, and liveness and safety are decided without
listing cycles (:class:`~repro.petrinet.marked_graph.MarkedGraphView`),
so ``repro storage`` stays polynomial in the net; only Figure 4's
table, :func:`balancing_ratios`, lists every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..dataflow.graph import DataArc
from ..errors import AnalysisError
from ..petrinet.howard import howard_analysis, howard_table_analysis
from ..petrinet.marked_graph import MarkedGraphView
from ..petrinet.marking import Marking
from ..petrinet.net import PetriNet
from .rate import dependence_cycle_time
from .sdsp_pn import ACK_PREFIX, DATA_PREFIX, SdspPetriNet

__all__ = [
    "AckChain",
    "StorageAllocation",
    "balancing_ratios",
    "optimize_storage",
    "apply_allocation",
    "verify_allocation",
    "BufferBalance",
    "balance_buffers",
]


@dataclass(frozen=True)
class AckChain:
    """One storage location covering a chain of consecutive forward
    data arcs; the acknowledgement arc runs from the chain's last
    consumer back to its first producer."""

    arcs: Tuple[DataArc, ...]

    @property
    def head(self) -> str:
        return self.arcs[0].source

    @property
    def tail(self) -> str:
        return self.arcs[-1].target

    @property
    def length(self) -> int:
        return len(self.arcs)

    @property
    def cycle_nodes(self) -> int:
        """Transitions on the induced cycle (chain nodes + none extra:
        the ack arc closes the path)."""
        return self.length + 1


@dataclass
class StorageAllocation:
    """A complete acknowledgement structure for an SDSP-PN.

    ``chains`` cover the forward data arcs; ``feedback_arcs`` keep one
    location each (their data place holds the loop-carried value, so
    the location is not shareable without changing semantics).
    """

    chains: List[AckChain]
    feedback_arcs: List[DataArc]
    baseline_locations: int

    @property
    def locations(self) -> int:
        return len(self.chains) + len(self.feedback_arcs)

    @property
    def saved_locations(self) -> int:
        return self.baseline_locations - self.locations

    @property
    def savings(self) -> Fraction:
        if self.baseline_locations == 0:
            return Fraction(0)
        return Fraction(self.saved_locations, self.baseline_locations)


def balancing_ratios(pn: SdspPetriNet) -> List[Tuple[Tuple[str, ...], Fraction]]:
    """Balancing ratio ``M(C)/|C|`` of every simple cycle of the
    SDSP-PN, keyed by the cycle's transition sequence.  The minimum is
    the loop's optimal computation rate (for unit execution times)."""
    view = pn.view()
    return [
        (cycle.transitions, cycle.balancing_ratio(view.initial))
        for cycle in view.simple_cycles()
    ]


def optimize_storage(
    pn: SdspPetriNet,
    max_chain_length: Optional[int] = None,
) -> StorageAllocation:
    """Greedy chain merge: cover the forward data arcs with directed
    chains no longer than the critical ratio allows.

    The cap comes from the induced cycle's ratio: a chain of ``L`` unit
    instructions' arcs plus its acknowledgement is a cycle of ``L + 1``
    transitions carrying one token, so it must satisfy
    ``(L + 1)/1 <= alpha`` where ``alpha`` is the cycle time — i.e.
    ``L <= alpha − 1``.  For a DOALL loop (``alpha = 2``) no merging is
    possible; L2's ``alpha = 3`` permits chains of two arcs.

    The greedy walks the forward arcs in topological order of their
    producers, extending the longest-growable chain first.  (Minimum
    path cover with a length cap is solvable greedily on the chains a
    DAG induces per node because each arc has a unique producer port;
    ties are broken deterministically.)
    """
    alpha = pn.howard.cycle_time
    if max_chain_length is None:
        # L <= alpha - 1, integral.
        cap = int(alpha) - 1 if alpha.denominator == 1 else int(alpha - 1)
        max_chain_length = max(1, cap)
    if max_chain_length < 1:
        raise AnalysisError("chain length cap must be at least 1")

    graph = pn.sdsp.graph
    kept = set(pn.net.transition_names)
    forward = [
        arc
        for arc in graph.forward_arcs()
        if arc.source in kept and arc.target in kept
    ]
    feedback = [
        arc
        for arc in graph.feedback_arcs()
        if arc.source in kept and arc.target in kept
    ]

    order = {name: i for i, name in enumerate(graph.forward_topological_order())}
    remaining = sorted(
        forward, key=lambda a: (order[a.source], order[a.target], a.identifier)
    )
    # chains keyed by their current tail node; each arc used once.
    open_chains: Dict[str, List[List[DataArc]]] = {}
    chains: List[List[DataArc]] = []
    for arc in remaining:
        extendable = open_chains.get(arc.source, [])
        chosen: Optional[List[DataArc]] = None
        for chain in extendable:
            if len(chain) < max_chain_length:
                chosen = chain
                break
        if chosen is not None:
            extendable.remove(chosen)
            chosen.append(arc)
        else:
            chosen = [arc]
            chains.append(chosen)
        open_chains.setdefault(arc.target, []).append(chosen)

    allocation = StorageAllocation(
        chains=[AckChain(tuple(chain)) for chain in chains],
        feedback_arcs=feedback,
        baseline_locations=len(forward) + len(feedback),
    )
    return _repair_allocation(pn, allocation, alpha)


def _repair_allocation(
    pn: SdspPetriNet,
    allocation: StorageAllocation,
    alpha: Fraction,
) -> StorageAllocation:
    """Verify-and-repair: the per-chain cap bounds each merged cycle's
    own ratio, but a merged acknowledgement can also *compose* with
    other cycles (notably feedback acknowledgements, which carry no
    token) into a cycle slower than the critical one.  Re-check the
    cycle time of the rebuilt net and conservatively split the longest
    merged chains back into singles until the optimal rate is restored.
    The loop terminates because the all-singles allocation is the
    baseline net itself.
    """
    chains = list(allocation.chains)
    while True:
        candidate = StorageAllocation(
            chains=chains,
            feedback_arcs=allocation.feedback_arcs,
            baseline_locations=allocation.baseline_locations,
        )
        net, marking = apply_allocation(pn, candidate)
        view = MarkedGraphView(net, marking)
        if howard_analysis(view, pn.durations).cycle_time == alpha:
            return candidate
        longest = max(chains, key=lambda c: c.length)
        if longest.length == 1:  # pragma: no cover - baseline always passes
            raise AnalysisError(
                "storage repair reached the baseline allocation without "
                "restoring the cycle time; the baseline net is inconsistent"
            )
        chains.remove(longest)
        chains.extend(AckChain((arc,)) for arc in longest.arcs)


def apply_allocation(
    pn: SdspPetriNet, allocation: StorageAllocation
) -> Tuple[PetriNet, Marking]:
    """Rebuild the SDSP-PN with the allocation's acknowledgement
    structure: data places unchanged, one ack place per chain (token 1:
    the merged buffer starts free) and one per feedback arc (token 0:
    the buffer holds the initial value)."""
    net = PetriNet(f"{pn.net.name}-minstorage")
    tokens: Dict[str, int] = {}
    for transition in pn.net.transitions:
        net.add_transition(transition.name, transition.annotation)

    graph = pn.sdsp.graph
    kept = set(pn.net.transition_names)
    for arc in graph.arcs:
        if arc.source not in kept or arc.target not in kept:
            continue
        place = f"{DATA_PREFIX}[{arc.identifier}]"
        net.add_place(place, annotation="data")
        net.add_arc(arc.source, place)
        net.add_arc(place, arc.target)
        if arc.initial_tokens:
            tokens[place] = arc.initial_tokens

    for chain in allocation.chains:
        place = f"{ACK_PREFIX}[{chain.arcs[0].identifier}..{chain.length}]"
        net.add_place(place, annotation="ack")
        net.add_arc(chain.tail, place)
        net.add_arc(place, chain.head)
        tokens[place] = 1

    for arc in allocation.feedback_arcs:
        if arc.source == arc.target:
            continue  # self-arcs carry no ack (see repro.core.sdsp)
        place = f"{ACK_PREFIX}[{arc.identifier}]"
        net.add_place(place, annotation="ack")
        net.add_arc(arc.target, place)
        net.add_arc(place, arc.source)
        # token 0: the feedback buffer starts full.

    return net, Marking(tokens, net)


def verify_allocation(
    pn: SdspPetriNet, allocation: StorageAllocation
) -> Fraction:
    """Prove the allocation preserves the optimal computation rate:
    rebuild the net, check liveness and safety (Theorems A.5.1/A.5.2,
    the first naming a token-free witness cycle) and re-compute the
    cycle time with Howard, which must equal the original.  Returns the
    (unchanged) cycle time."""
    original = pn.howard.cycle_time
    net, marking = apply_allocation(pn, allocation)
    view = MarkedGraphView(net, marking)
    dead = view.token_free_cycle()
    if dead is not None:
        raise AnalysisError(
            "optimised allocation deadlocks: token-free cycle through "
            + " -> ".join(dead.transitions)
        )
    unsafe = view.unsafe_places()
    if unsafe:
        raise AnalysisError(
            "optimised allocation is unsafe on places: " + ", ".join(unsafe)
        )
    optimised = howard_analysis(view, pn.durations).cycle_time
    if optimised != original:
        raise AnalysisError(
            f"optimised allocation changed the cycle time: {original} -> "
            f"{optimised}"
        )
    return optimised


# ---------------------------------------------------------------------------
# Buffer balancing (the complementary storage question)
# ---------------------------------------------------------------------------


@dataclass
class BufferBalance:
    """Per-arc buffer capacities sustaining ``target_period``.

    ``capacities`` maps each data-arc identifier to its pair's total
    token count (data + acknowledgement); ``total`` is the storage sum.
    Compare against the uniform allocation ``capacity × arcs`` of
    :func:`repro.core.sdsp_pn.build_sdsp_pn`.
    """

    target_period: Fraction
    capacities: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.capacities.values())


def balance_buffers(
    pn: SdspPetriNet,
    target_rate: Optional[Fraction] = None,
) -> BufferBalance:
    """Minimal per-arc buffering for a target computation rate.

    Section 6 fixes the acknowledgement *topology* and asks how many
    physical locations it needs; this solves the complementary question
    the FIFO-queued extension (Section 7) raises: with per-arc queues,
    how deep must each queue be to sustain a given rate?  This is the
    classical buffer-balancing LP (Gao's dataflow software pipelining
    work): a period ``P`` is sustainable with pair capacities ``b_e``
    iff offsets ``s`` exist with, for each data arc ``e : u → v``
    carrying ``d_e`` initial (loop-carried) tokens::

        s(v) − s(u)  >=  τ(u) − P·d_e             (data place)
        s(u) − s(v)  >=  τ(v) − P·(b_e − d_e)     (ack place)

    Minimising ``Σ b_e`` subject to these (with HiGHS) and rounding up
    gives an integral allocation — rounding only *adds* tokens, which
    can only shorten cycle times, so feasibility is preserved; the
    result is re-verified by cycle-time analysis anyway.

    ``target_rate`` defaults to the fastest sustainable rate, "as fast
    as this loop can possibly go": the recurrence cycles carry the
    loop's own values (fixed tokens), and non-reentrance floors the
    period at the slowest operation, while buffering can fix everything
    else.  That period, ``max(max τ, RecMII)``, is the cycle time of
    the net's data places alone, the acknowledgements stripped
    (:func:`~repro.core.rate.dependence_cycle_time`, Howard on the data
    rows of the edge table), whose implicit self-loops give the
    ``max τ`` floor.  Self-arcs (accumulators) are
    capacity-1 by non-reentrance and excluded from the optimisation.
    The result is re-verified by Howard on the rebuilt net.
    """
    from scipy.optimize import linprog
    import numpy as np

    kept = set(pn.net.transition_names)
    arcs = [
        arc
        for arc in pn.sdsp.all_data_arcs
        if arc.source in kept and arc.target in kept and arc.source != arc.target
    ]
    self_arcs = [
        arc
        for arc in pn.sdsp.all_data_arcs
        if arc.source in kept and arc.target == arc.source
    ]
    transitions = list(pn.net.transition_names)
    index = {t: i for i, t in enumerate(transitions)}
    n = len(transitions)
    m = len(arcs)

    if target_rate is None:
        # abstract mode is the only way a net drops nodes of its SDSP
        target_rate = 1 / dependence_cycle_time(
            pn.sdsp,
            include_io=len(transitions) == len(pn.sdsp.nodes),
            durations=pn.durations,
        )
    target_period = 1 / target_rate

    alpha = float(target_period)
    # Variables: s_0..s_{n-1}, b_0..b_{m-1}
    rows = []
    rhs = []
    for arc in arcs:
        # -s_v + s_u <= -tau_u + alpha * d_e   (data place)
        row = np.zeros(n + m)
        row[index[arc.source]] = 1.0
        row[index[arc.target]] = -1.0
        rows.append(row)
        rhs.append(-pn.durations[arc.source] + alpha * arc.initial_tokens)
    for j, arc in enumerate(arcs):
        # s_v - s_u - alpha*(b_e - d_e) <= -tau_v   (ack place)
        row = np.zeros(n + m)
        row[index[arc.target]] = 1.0
        row[index[arc.source]] = -1.0
        row[n + j] = -alpha
        rows.append(row)
        rhs.append(-pn.durations[arc.target] - alpha * arc.initial_tokens)

    cost = np.concatenate([np.zeros(n), np.ones(m)])
    bounds = [(None, None)] * n + [
        (max(1, arc.initial_tokens), None) for arc in arcs
    ]
    bounds[0] = (0, 0)  # pin one offset

    result = linprog(
        c=cost,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rows else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise AnalysisError(
            f"buffer-balancing LP infeasible for period {target_period}: "
            f"{result.message}"
        )

    import math

    capacities = {
        arc.identifier: max(
            max(1, arc.initial_tokens),
            math.ceil(round(result.x[n + j], 9)),
        )
        for j, arc in enumerate(arcs)
    }
    for arc in self_arcs:
        capacities[arc.identifier] = max(1, arc.initial_tokens)

    balance = BufferBalance(target_period=target_period, capacities=capacities)
    _verify_balance(pn, balance)
    return balance


def _verify_balance(pn: SdspPetriNet, balance: BufferBalance) -> None:
    """Re-run Howard on the SDSP-PN's edge table with the balanced
    capacities on the ack places, and prove the cycle time meets the
    target."""
    edges = list(pn.edges)
    row_of = {row[0]: index for index, row in enumerate(edges)}
    for identifier, ack_place in pn.ack_place_of.items():
        data_tokens = edges[row_of[pn.data_place_of[identifier]]][3]
        place, producer, consumer, _ = edges[row_of[ack_place]]
        spare = balance.capacities[identifier] - data_tokens
        edges[row_of[ack_place]] = (place, producer, consumer, spare)
    achieved = howard_table_analysis(
        pn.net.transition_names, edges, pn.durations
    ).cycle_time
    if achieved > balance.target_period:
        raise AnalysisError(
            f"balanced allocation reaches cycle time {achieved}, above the "
            f"target {balance.target_period}"
        )
