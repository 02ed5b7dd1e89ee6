"""Marked graphs (event graphs) — the net class the paper's theory uses.

A Petri net is a *marked graph* iff every place has exactly one input
and one output transition (Definition A.5.1).  Marked graphs are
persistent by construction and admit sharp structural characterisations
of liveness and safety (Theorems A.5.1/A.5.2), stated on cycles — no
state-space exploration required.

A marked graph is conveniently viewed as a digraph over transitions in
which each place becomes an edge from its producer to its consumer,
labelled with its initial token count; simple cycles of that digraph
are in bijection with the simple cycles of the net (paper footnote 8/9:
directed paths where all nodes are distinct except the endpoints).
The theorems need no cycle listing on that digraph: a net is live iff
its token-free edges form no cycle, and the fewest tokens on a cycle
through a place is one shortest path away.  Enumerating every simple
cycle (:meth:`MarkedGraphView.simple_cycles`) is exponential in
general; it stays for the test oracles, Figure 4's
:func:`~repro.core.storage.balancing_ratios` and the simulator's
:meth:`~MarkedGraphView.token_count_invariant` check.

>>> from repro.petrinet import PetriNet, Marking
>>> net = PetriNet(name="ring")
>>> for t in ("a", "b"):
...     _ = net.add_transition(t)
>>> for place, (src, dst) in [("p", ("a", "b")), ("q", ("b", "a"))]:
...     _ = net.add_place(place)
...     _ = net.add_arc(src, place)
...     _ = net.add_arc(place, dst)
>>> view = MarkedGraphView(net, Marking({"p": 1}))
>>> [cycle.transitions for cycle in view.simple_cycles()]
[('a', 'b')]
>>> view.simple_cycles()[0].token_sum(Marking({"p": 1}))
1
>>> view.is_live(), MarkedGraphView(net, Marking({})).token_free_cycle()
(True, SimpleCycle(transitions=('a', 'b'), places=('p', 'q')))
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .. import digraph
from ..errors import NotAMarkedGraphError
from .marking import Marking
from .net import PetriNet

__all__ = [
    "SimpleCycle",
    "MarkedGraphView",
    "expand_node_cycle",
    "require_marked_graph",
]


def require_marked_graph(net: PetriNet) -> None:
    """Raise :class:`NotAMarkedGraphError` unless ``net`` is a marked
    graph, naming an offending place for diagnosis."""
    for place in net.place_names:
        producers = net.input_transitions(place)
        consumers = net.output_transitions(place)
        if len(producers) != 1 or len(consumers) != 1:
            raise NotAMarkedGraphError(
                f"place {place!r} has {len(producers)} producers and "
                f"{len(consumers)} consumers; a marked graph requires "
                "exactly one of each"
            )


@dataclass(frozen=True)
class SimpleCycle:
    """A simple cycle of a marked graph.

    ``transitions`` lists the transitions in cycle order;
    ``places[i]`` is the place on the edge from ``transitions[i]`` to
    ``transitions[(i+1) % len]``.
    """

    transitions: Tuple[str, ...]
    places: Tuple[str, ...]

    def token_sum(self, marking: Marking) -> int:
        """``M(C)``: initial tokens summed over the cycle's places."""
        return sum(marking[p] for p in self.places)

    def value_sum(self, durations: Mapping[str, int]) -> int:
        """``Ω(C)``: execution times summed over the cycle's
        transitions."""
        return sum(durations[t] for t in self.transitions)

    def cycle_time(self, marking: Marking, durations: Mapping[str, int]) -> Fraction:
        """``Ω(C) / M(C)`` — infinite token-free cycles are rejected by
        the caller (they mean deadlock)."""
        tokens = self.token_sum(marking)
        if tokens == 0:
            raise ZeroDivisionError("token-free cycle has no finite cycle time")
        return Fraction(self.value_sum(durations), tokens)

    def balancing_ratio(self, marking: Marking) -> Fraction:
        """``M(C) / |C|`` — Section 6's balancing ratio, with ``|C|`` the
        number of transitions on the cycle (unit execution times)."""
        return Fraction(self.token_sum(marking), len(self.transitions))

    def __len__(self) -> int:
        return len(self.transitions)


class MarkedGraphView:
    """Cycle-level analysis of a marked graph with an initial marking.

    The view caches the transition-level hops (the places from each
    producer to each consumer) and the simple-cycle enumeration.
    Theorems A.5.1 (:meth:`is_live`) and A.5.2 (:meth:`is_safe`) are
    decided in polynomial time, without the enumeration.
    """

    def __init__(self, net: PetriNet, initial: Marking) -> None:
        require_marked_graph(net)
        self.net = net
        self.initial = initial
        self._hops: Optional[Dict[str, Dict[str, List[str]]]] = None
        self._cycles: Optional[List[SimpleCycle]] = None

    # ------------------------------------------------------------------
    # Underlying digraph
    # ------------------------------------------------------------------
    def _transition_hops(self) -> Dict[str, Dict[str, List[str]]]:
        """The transition digraph as ``{producer: {consumer: places}}``,
        places sorted: one edge per place, so several places between
        one pair are parallel edges.  Every transition is a key."""
        if self._hops is None:
            hops: Dict[str, Dict[str, List[str]]] = {
                t: {} for t in self.net.transition_names
            }
            for place in self.net.place_names:
                (producer,) = self.net.input_transitions(place)
                (consumer,) = self.net.output_transitions(place)
                hops[producer].setdefault(consumer, []).append(place)
            for targets in hops.values():
                for places in targets.values():
                    places.sort()
            self._hops = hops
        return self._hops

    # ------------------------------------------------------------------
    # Cycle enumeration
    # ------------------------------------------------------------------
    def simple_cycles(self) -> List[SimpleCycle]:
        """All simple cycles (node-simple, per the paper's footnote), as
        :class:`SimpleCycle` records.

        Parallel places between the same pair of transitions yield one
        cycle per place choice, as they should: each corresponds to a
        distinct simple cycle of the net.
        """
        if self._cycles is not None:
            return self._cycles
        hops = self._transition_hops()
        cycles: List[SimpleCycle] = []
        for node_cycle in digraph.simple_cycles(hops):
            successors = node_cycle[1:] + node_cycle[:1]
            cycles.extend(
                expand_node_cycle(
                    node_cycle,
                    [hops[u][v] for u, v in zip(node_cycle, successors)],
                )
            )
        # sort canonicalized cycles so reports, ledgers and goldens do
        # not depend on the enumeration order
        cycles.sort(key=lambda c: (c.transitions, c.places))
        self._cycles = cycles
        return cycles

    # ------------------------------------------------------------------
    # Theorems A.5.1 – A.5.3
    # ------------------------------------------------------------------
    def token_free_cycle(self) -> Optional[SimpleCycle]:
        """A cycle whose places all start empty — the witness against
        liveness — or ``None`` when the net is live.  Such a cycle is
        exactly a cycle of the subgraph of token-free places, so one
        depth-first search finds it, in ``O(P + T)``."""
        zero: Dict[str, Dict[str, str]] = {t: {} for t in self.net.transition_names}
        for place in self.net.place_names:
            if self.initial[place] == 0:
                (producer,) = self.net.input_transitions(place)
                (consumer,) = self.net.output_transitions(place)
                zero[producer].setdefault(consumer, place)
        transitions = digraph.find_cycle(zero)
        if transitions is None:
            return None
        size = len(transitions)
        return SimpleCycle(
            tuple(transitions),
            tuple(
                zero[transitions[i]][transitions[(i + 1) % size]]
                for i in range(size)
            ),
        )

    def is_live(self) -> bool:
        """Theorem A.5.1: live iff every simple cycle carries a token,
        i.e. iff there is no :meth:`token_free_cycle`."""
        return self.token_free_cycle() is None

    def is_safe(self) -> bool:
        """Theorem A.5.2 (for a live marking): safe iff every place lies
        on some simple cycle with token count exactly 1."""
        return not self.unsafe_places()

    def unsafe_places(self) -> List[str]:
        """Places on no simple cycle with token count 1, in net order.

        A place ``p = u → v`` lies on a cycle of ``M(p)`` plus the
        tokens of a path ``v → u``, and a shortest path is simple, so
        the fewest tokens on a cycle through ``p`` is ``M(p)`` plus the
        token distance from ``v`` to ``u``: one Dijkstra per consumer
        transition, over the token counts.  On a live net every cycle
        carries a token, so ``p`` is covered iff that number is 1; a
        place on no cycle is unsafe."""
        tokens: Dict[str, Dict[str, int]] = {}
        for producer, targets in self._transition_hops().items():
            tokens[producer] = {
                consumer: min(self.initial[p] for p in places)
                for consumer, places in targets.items()
            }
        distances: Dict[str, Dict[str, int]] = {}
        unsafe = []
        for place in self.net.place_names:
            (producer,) = self.net.input_transitions(place)
            (consumer,) = self.net.output_transitions(place)
            if consumer not in distances:
                distances[consumer] = digraph.shortest_paths(tokens, consumer)[0]
            back = distances[consumer].get(producer)
            if back is None or self.initial[place] + back != 1:
                unsafe.append(place)
        return unsafe

    def token_count_invariant(self, marking: Marking) -> bool:
        """The token count of every simple cycle is a firing invariant
        (Appendix A.7); this checks ``marking`` agrees with the initial
        marking on every cycle — useful as a simulator sanity oracle."""
        return all(
            c.token_sum(marking) == c.token_sum(self.initial)
            for c in self.simple_cycles()
        )

    def is_strongly_connected(self) -> bool:
        """Strong connectivity of the transition digraph; steady-state
        equivalent nets are strongly connected by construction."""
        return len(digraph.strongly_connected_components(self._transition_hops())) <= 1


def expand_node_cycle(
    node_cycle: Sequence[str], options: Sequence[Sequence[str]]
) -> Iterator[SimpleCycle]:
    """The place-labelled cycles a node cycle induces, one per choice
    of place on each hop (``options[i]`` for the hop from
    ``node_cycle[i]``), each rotated to the canonical start (the
    lexicographically smallest transition) so the same cycle always
    prints the same way."""
    size = len(node_cycle)
    start = min(range(size), key=node_cycle.__getitem__)
    rotated = tuple(node_cycle[start:]) + tuple(node_cycle[:start])
    for combo in product(*options):
        yield SimpleCycle(rotated, combo[start:] + combo[:start])
