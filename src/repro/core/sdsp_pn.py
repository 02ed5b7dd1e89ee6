"""SDSP → SDSP-PN translation (Section 3.2, Figures 1(d) and 2(d)).

The translation is literal: one transition per instruction node and one
place per arc — data arcs *and* acknowledgement arcs — with the initial
marking taken from the arcs' initial tokens.  Two properties follow by
construction and are re-checked (not assumed) by the test suite:

1. the initial marking is **live and safe** — every data/ack pair forms
   a cycle carrying exactly one token, covering every place (Theorems
   A.5.1/A.5.2);
2. the net is a **marked graph** — every place is an arc of the
   dataflow graph and therefore has exactly one producer and one
   consumer.

>>> from repro.loops import parse_loop, translate
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> pn.size                      # one compute transition
1
>>> sorted(pn.durations.values())
[1]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from ..dataflow.graph import DataArc, DataflowGraph
from ..errors import NetConstructionError
from ..petrinet import howard
from ..petrinet.marked_graph import MarkedGraphView
from ..petrinet.marking import Marking
from ..petrinet.net import PetriNet
from ..petrinet.timed import TimedPetriNet
from .sdsp import AckArc, Sdsp

__all__ = ["SdspPetriNet", "build_sdsp_pn"]

DATA_PREFIX = "d"
ACK_PREFIX = "a"


@dataclass
class SdspPetriNet:
    """An SDSP-PN: the timed Petri net, its initial marking, and the
    bookkeeping linking net elements back to the dataflow graph.

    * ``data_place_of`` / ``ack_place_of`` map each data arc identifier
      to its data (resp. acknowledgement) place;
    * every transition name equals its instruction node name;
    * ``durations`` is the ``Ω`` function (unit by default, matching the
      paper's experiments).
    """

    sdsp: Sdsp
    net: PetriNet
    initial: Marking
    durations: Dict[str, int]
    data_place_of: Dict[str, str]
    ack_place_of: Dict[str, str]

    @property
    def timed(self) -> TimedPetriNet:
        return TimedPetriNet(self.net, self.durations)

    def view(self) -> MarkedGraphView:
        """Marked-graph analysis view (cycle enumeration etc.)."""
        return MarkedGraphView(self.net, self.initial)

    @cached_property
    def howard(self) -> howard.HowardResult:
        """Howard's policy iteration on this net, run on first read and
        kept: the optimal rate, the critical-cycle count of the bounds,
        the ``critical_cycles`` cross-check and ``repro explain``'s
        witness all read this one result.  A built net is never
        mutated, so the result cannot go stale."""
        return howard.howard_analysis(self.view(), self.durations)

    @property
    def size(self) -> int:
        """``n`` — instructions in the loop body, i.e. transitions in
        the net (load/store nodes are excluded in abstract mode)."""
        return len(self.net.transition_names)

    def arc_of_place(self, place: str) -> Optional[DataArc]:
        """Inverse lookup: the dataflow arc a data/ack place encodes."""
        for identifier, data_place in self.data_place_of.items():
            if data_place == place:
                return self._arc_by_identifier(identifier)
        for identifier, ack_place in self.ack_place_of.items():
            if ack_place == place:
                return self._arc_by_identifier(identifier)
        return None

    def _arc_by_identifier(self, identifier: str) -> Optional[DataArc]:
        for arc in self.sdsp.all_data_arcs:
            if arc.identifier == identifier:
                return arc
        return None


def build_sdsp_pn(
    source: "Sdsp | DataflowGraph",
    durations: Optional[Mapping[str, int]] = None,
    include_acks: bool = True,
    include_io: bool = True,
    buffer_capacity: int = 1,
) -> SdspPetriNet:
    """Translate an SDSP (or a raw dataflow graph, validated on the way
    in) into its SDSP-PN.

    Parameters
    ----------
    durations:
        Execution time per instruction; defaults to one cycle each, the
        setting of all the paper's examples and measurements.
    include_acks:
        When False the acknowledgement places are omitted.  The
        resulting net is *not* safe (forward places are unbounded) and
        models an idealised machine with infinite buffering; it exists
        for the ablation benchmark that isolates the cost of the
        one-token-per-arc discipline.
    include_io:
        When True (default, "A-code mode") array LOAD/STORE actors are
        instruction transitions like any other — as in the paper's
        Livermore measurements, where fetches are real dataflow
        instructions.  When False ("abstract mode") loads and stores
        are treated as free external input/output streams and dropped
        from the net, reproducing the paper's Figure 1(d) exactly: loop
        L1 yields 5 transitions (A–E) and 10 places (5 data + 5 ack).
    buffer_capacity:
        Tokens per data/acknowledgement pair.  1 (default) is the
        static dataflow one-token-per-arc discipline of the paper;
        larger values model the **FIFO-queued dataflow extension** of
        Section 7, where each arc is a queue holding up to ``k``
        tokens: every acknowledgement place simply starts with
        ``k − initial data tokens``.  The net stays a live marked graph
        bounded by ``k`` (safe only for ``k = 1``); the ablation bench
        measures how the extra buffering lifts the DOALL rate from 1/2
        towards 1.
    """
    from ..dataflow.actors import ActorKind

    if buffer_capacity < 1:
        raise NetConstructionError(
            f"buffer capacity must be >= 1, got {buffer_capacity}"
        )

    sdsp = source if isinstance(source, Sdsp) else Sdsp(source)
    graph = sdsp.graph

    def is_io(node: str) -> bool:
        return graph.actor(node).kind in (ActorKind.LOAD, ActorKind.STORE)

    kept_nodes = [
        node for node in sdsp.nodes if include_io or not is_io(node)
    ]
    if not kept_nodes:
        raise NetConstructionError(
            "abstract mode dropped every node; the loop body has no "
            "compute instructions"
        )
    kept_set = set(kept_nodes)

    net = PetriNet(f"{sdsp.name}-pn")
    tokens: Dict[str, int] = {}
    data_place_of: Dict[str, str] = {}
    ack_place_of: Dict[str, str] = {}

    for node in kept_nodes:
        net.add_transition(node, annotation="sdsp")

    kept_arcs = [
        arc
        for arc in sdsp.all_data_arcs
        if arc.source in kept_set and arc.target in kept_set
    ]

    for arc in kept_arcs:
        data_place = f"{DATA_PREFIX}[{arc.identifier}]"
        net.add_place(data_place, annotation="data")
        net.add_arc(arc.source, data_place)
        net.add_arc(data_place, arc.target)
        data_place_of[arc.identifier] = data_place
        if arc.initial_tokens:
            tokens[data_place] = arc.initial_tokens

    if include_acks:
        for arc in kept_arcs:
            if arc.source == arc.target:
                # Self-arcs (scalar accumulators) need no ack: the
                # transition's non-reentrance bounds the buffer, and a
                # reversed ack would be a token-free (dead) cycle.
                continue
            ack = AckArc(arc.target, arc.source, arc)
            ack_place = f"{ACK_PREFIX}[{ack.data_arc.identifier}]"
            net.add_place(ack_place, annotation="ack")
            net.add_arc(ack.source, ack_place)
            net.add_arc(ack_place, ack.target)
            ack_place_of[ack.data_arc.identifier] = ack_place
            ack_tokens = buffer_capacity - arc.initial_tokens
            if ack_tokens:
                tokens[ack_place] = ack_tokens

    if durations is None:
        duration_map = {node: 1 for node in kept_nodes}
    else:
        duration_map = {}
        for node in kept_nodes:
            if node not in durations:
                raise NetConstructionError(
                    f"no execution time supplied for instruction {node!r}"
                )
            duration_map[node] = int(durations[node])

    return SdspPetriNet(
        sdsp=sdsp,
        net=net,
        initial=Marking(tokens, net),
        durations=duration_map,
        data_place_of=data_place_of,
        ack_place_of=ack_place_of,
    )
