"""The SDSP formalism: ``G = (V, E, E', F, F')`` (Section 3.2).

A *static dataflow software pipeline* packages a validated dataflow
graph together with the derived acknowledgement structure:

* ``V`` — instruction nodes,
* ``E`` — forward data arcs,
* ``E'`` — feedback data arcs (loop-carried dependences of distance 1),
* ``F`` — acknowledgement arcs for ``E`` (reversed, initially holding
  the token that says "the buffer is free"),
* ``F'`` — acknowledgement arcs for ``E'`` (reversed, initially empty —
  the buffer holds the loop's initial value).

The class is a thin, immutable view over a :class:`DataflowGraph`; the
Petri-net translation consumes it (:mod:`repro.core.sdsp_pn`), and the
storage optimiser (:mod:`repro.core.storage`) rewrites its
acknowledgement structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dataflow.graph import ArcKind, DataArc, DataflowGraph
from ..dataflow.validate import require_valid

__all__ = ["AckArc", "Sdsp"]


@dataclass(frozen=True)
class AckArc:
    """An acknowledgement arc paired with a data arc.

    ``initial_tokens`` is complementary to the data arc's: forward data
    arcs start empty so their acknowledgement starts full (1), feedback
    data arcs start full so their acknowledgement starts empty (0).
    Together each data/ack pair forms a two-transition cycle carrying
    exactly one token — one storage location (Section 6).
    """

    source: str
    target: str
    data_arc: DataArc

    @property
    def initial_tokens(self) -> int:
        return 1 - self.data_arc.initial_tokens

    @property
    def identifier(self) -> str:
        return f"ack({self.data_arc.identifier})"


class Sdsp:
    """A validated static dataflow software pipeline.

    The graph is validated once, when the SDSP is built; an SDSP
    derived from a valid one by :meth:`unrolled` is valid by
    construction and is not validated again.
    """

    def __init__(self, graph: DataflowGraph) -> None:
        require_valid(graph)
        self._graph = graph

    def unrolled(self, factor: int) -> "Sdsp":
        """This SDSP unrolled ``factor`` times
        (:func:`~repro.loops.unroll.unroll_graph`).  Unrolling keeps a
        valid SDSP valid — the argument is in ``unroll_graph``'s
        docstring, and a property test checks it — so the unrolled graph
        is not validated again."""
        from ..loops.unroll import unroll_graph

        unrolled = Sdsp.__new__(Sdsp)
        unrolled._graph = unroll_graph(self._graph, factor)
        return unrolled

    @property
    def graph(self) -> DataflowGraph:
        return self._graph

    @property
    def name(self) -> str:
        return self._graph.name

    # The five components of the formal tuple ---------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        """``V`` — the instruction nodes."""
        return self._graph.actor_names

    @property
    def forward_arcs(self) -> List[DataArc]:
        """``E`` — forward data arcs."""
        return self._graph.forward_arcs()

    @property
    def feedback_arcs(self) -> List[DataArc]:
        """``E'`` — feedback data arcs."""
        return self._graph.feedback_arcs()

    @property
    def forward_acks(self) -> List[AckArc]:
        """``F`` — acknowledgement arcs for ``E``."""
        return [
            AckArc(a.target, a.source, a)
            for a in self._graph.forward_arcs()
            if a.source != a.target
        ]

    @property
    def feedback_acks(self) -> List[AckArc]:
        """``F'`` — acknowledgement arcs for ``E'``.

        Self-arcs (a scalar accumulator feeding itself, e.g. the inner
        product's ``Q``) carry no acknowledgement: the transition's own
        non-reentrance (Assumption A.6.1) already bounds the buffer at
        one token, and a literal reversed ack would form a token-free
        cycle — a deadlock.
        """
        return [
            AckArc(a.target, a.source, a)
            for a in self._graph.feedback_arcs()
            if a.source != a.target
        ]

    @property
    def all_data_arcs(self) -> List[DataArc]:
        return list(self._graph.arcs)

    @property
    def all_acks(self) -> List[AckArc]:
        return self.forward_acks + self.feedback_acks

    # Convenience --------------------------------------------------------
    @property
    def size(self) -> int:
        """``n`` — the number of instructions in the loop body, the
        parameter of every bound in the paper."""
        return len(self._graph)

    @property
    def has_loop_carried_dependence(self) -> bool:
        return self._graph.has_loop_carried_dependence()

    @property
    def storage_locations(self) -> int:
        """Total storage allocated to the loop under the default
        one-location-per-pair policy (Section 6): the number of
        data/acknowledgement arc pairs."""
        return len(self._graph.arcs)

    @property
    def max_concurrent_iterations(self) -> int:
        """The implicit bound ``k`` on concurrently active iterations —
        the number of nodes along the longest dependence path in the
        loop body (Section 7)."""
        return self._graph.critical_path_length()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sdsp({self.name!r}, n={self.size}, "
            f"lcd={self.has_loop_carried_dependence})"
        )
