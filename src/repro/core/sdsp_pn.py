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

So the net is its *edge table*: one row ``(place, producer, consumer,
tokens)`` per place (:data:`~repro.petrinet.marked_graph.EdgeRow`),
the weighted edge list of its transition digraph.
:func:`sdsp_pn_table` writes the rows in one pass over the arcs, with
no net built — which is all Howard needs for the dependence bound and
for each ``--unroll auto`` candidate — and :func:`build_sdsp_pn` turns
them into the simulator's :class:`~repro.petrinet.net.PetriNet` in one
bulk pass.  The table travels with the net (:attr:`SdspPetriNet.edges`),
and every analysis of the net reads it: Howard and its certificate,
liveness and safety, the schedule's dependence proof and the SCP
expansion.

>>> from repro.loops import parse_loop, translate
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> pn.size                      # one compute transition
1
>>> sorted(pn.durations.values())
[1]
>>> pn.edges                     # the accumulator's self-arc: no ack
(('d[A.0->A.0]', 'A', 'A', 1),)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..dataflow.actors import ActorKind
from ..dataflow.graph import DataArc, DataflowGraph
from ..errors import NetConstructionError
from ..petrinet import howard
from ..petrinet.marked_graph import EdgeRow, MarkedGraphView, edge_table
from ..petrinet.marking import Marking
from ..petrinet.net import PetriNet
from ..petrinet.timed import TimedPetriNet
from .sdsp import Sdsp

__all__ = ["SdspPetriNet", "SdspPnTable", "build_sdsp_pn", "sdsp_pn_table"]

DATA_PREFIX = "d"
ACK_PREFIX = "a"


class SdspPnTable(NamedTuple):
    """An SDSP-PN as its edge table, without the net.

    ``transitions`` are the instruction transitions in net order and
    ``durations`` their execution times ``Ω``; ``edges`` holds one
    :data:`~repro.petrinet.marked_graph.EdgeRow` per place in net
    order: the data places in arc order (:attr:`data_edges`), then the
    acknowledgement places.  ``data_place_of`` / ``ack_place_of`` are
    :class:`SdspPetriNet`'s.
    """

    sdsp: Sdsp
    transitions: Tuple[str, ...]
    durations: Dict[str, int]
    edges: Tuple[EdgeRow, ...]
    data_place_of: Dict[str, str]
    ack_place_of: Dict[str, str]

    @property
    def data_edges(self) -> Tuple[EdgeRow, ...]:
        """The data places' rows: the dependence subnet, without the
        acknowledgement discipline."""
        return self.edges[: len(self.data_place_of)]


@dataclass
class SdspPetriNet:
    """An SDSP-PN: the timed Petri net, its initial marking, and the
    bookkeeping linking net elements back to the dataflow graph.

    * ``data_place_of`` / ``ack_place_of`` map each data arc identifier
      to its data (resp. acknowledgement) place;
    * every transition name equals its instruction node name;
    * ``durations`` is the ``Ω`` function (unit by default, matching the
      paper's experiments);
    * ``edges`` is the net's edge table, one row per place in net order
      (:func:`sdsp_pn_table`); a net built elsewhere gets it derived
      from the net, which checks it is a marked graph.
    """

    sdsp: Sdsp
    net: PetriNet
    initial: Marking
    durations: Dict[str, int]
    data_place_of: Dict[str, str]
    ack_place_of: Dict[str, str]
    edges: Optional[Tuple[EdgeRow, ...]] = None

    def __post_init__(self) -> None:
        if self.edges is None:
            self.edges = edge_table(self.net, self.initial)

    @property
    def timed(self) -> TimedPetriNet:
        return TimedPetriNet(self.net, self.durations)

    def view(self) -> MarkedGraphView:
        """Marked-graph analysis view (liveness, safety, Howard) over
        the net's edge table."""
        return MarkedGraphView(self.net, self.initial, self.edges)

    @cached_property
    def howard(self) -> howard.HowardResult:
        """Howard's policy iteration on this net, run on first read and
        kept: the optimal rate, the critical-cycle count of the bounds,
        the ``critical_cycles`` listing, ``repro explain``'s witness, the
        dash's slack and ``repro storage`` all read this one result.  A
        built net is never mutated, so the result cannot go stale."""
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


def sdsp_pn_table(
    source: "Sdsp | DataflowGraph",
    durations: Optional[Mapping[str, int]] = None,
    include_io: bool = True,
    buffer_capacity: int = 1,
) -> SdspPnTable:
    """The SDSP-PN of ``source`` as its edge table, in one pass over the
    arcs and with no net built; :func:`build_sdsp_pn` documents the
    parameters.  A raw dataflow graph is validated on the way in; an
    :class:`~repro.core.sdsp.Sdsp` is not validated again."""
    if buffer_capacity < 1:
        raise NetConstructionError(
            f"buffer capacity must be >= 1, got {buffer_capacity}"
        )

    sdsp = source if isinstance(source, Sdsp) else Sdsp(source)
    graph = sdsp.graph
    arcs = graph.arcs
    if include_io:
        transitions = graph.actor_names
    else:
        io = (ActorKind.LOAD, ActorKind.STORE)
        transitions = tuple(
            actor.name for actor in graph.actors if actor.kind not in io
        )
        kept = set(transitions)
        arcs = [a for a in arcs if a.source in kept and a.target in kept]
    if not transitions:
        raise NetConstructionError(
            "abstract mode dropped every node; the loop body has no "
            "compute instructions"
        )

    data_rows: List[EdgeRow] = []
    ack_rows: List[EdgeRow] = []
    data_place_of: Dict[str, str] = {}
    ack_place_of: Dict[str, str] = {}
    for arc in arcs:
        identifier = arc.identifier
        data_place = f"{DATA_PREFIX}[{identifier}]"
        data_place_of[identifier] = data_place
        data_rows.append(
            (data_place, arc.source, arc.target, arc.initial_tokens)
        )
        if arc.source == arc.target:
            # Self-arcs (scalar accumulators) need no ack: the
            # transition's non-reentrance bounds the buffer, and a
            # reversed ack would be a token-free (dead) cycle.
            continue
        ack_place = f"{ACK_PREFIX}[{identifier}]"
        ack_place_of[identifier] = ack_place
        ack_rows.append(
            (ack_place, arc.target, arc.source,
             buffer_capacity - arc.initial_tokens)
        )

    if durations is None:
        duration_map = dict.fromkeys(transitions, 1)
    else:
        duration_map = {}
        for node in transitions:
            if node not in durations:
                raise NetConstructionError(
                    f"no execution time supplied for instruction {node!r}"
                )
            duration_map[node] = int(durations[node])

    return SdspPnTable(
        sdsp=sdsp,
        transitions=tuple(transitions),
        durations=duration_map,
        edges=tuple(data_rows + ack_rows),
        data_place_of=data_place_of,
        ack_place_of=ack_place_of,
    )


def build_sdsp_pn(
    source: "Sdsp | DataflowGraph",
    durations: Optional[Mapping[str, int]] = None,
    include_io: bool = True,
    buffer_capacity: int = 1,
) -> SdspPetriNet:
    """Translate an SDSP (or a raw dataflow graph, validated on the way
    in) into its SDSP-PN: the rows of :func:`sdsp_pn_table`, turned
    into a net in one bulk pass (:meth:`~repro.petrinet.net.PetriNet.
    from_rows`).

    Parameters
    ----------
    durations:
        Execution time per instruction; defaults to one cycle each, the
        setting of all the paper's examples and measurements.
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
    table = sdsp_pn_table(source, durations, include_io, buffer_capacity)
    data = len(table.data_place_of)
    net = PetriNet.from_rows(
        f"{table.sdsp.name}-pn",
        [(transition, "sdsp") for transition in table.transitions],
        chain(
            ((p, "data", (u,), (v,)) for p, u, v, _ in table.edges[:data]),
            ((p, "ack", (u,), (v,)) for p, u, v, _ in table.edges[data:]),
        ),
    )
    return SdspPetriNet(
        sdsp=table.sdsp,
        net=net,
        initial=Marking({p: m for p, _, _, m in table.edges if m}, net),
        durations=table.durations,
        data_place_of=table.data_place_of,
        ack_place_of=table.ack_place_of,
        edges=table.edges,
    )
