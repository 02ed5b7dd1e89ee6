"""Static dataflow graphs (the SDSP program representation).

A *static dataflow software pipeline* (Section 3.2) is a dataflow graph
``G = (V, E, E', F, F')`` where ``V`` is the set of instruction nodes,
``E`` the forward data arcs, ``E'`` the feedback data arcs (loop-carried
dependences, one iteration of distance in this paper), and ``F``/``F'``
the acknowledgement arcs paired with ``E``/``E'``.

This module represents the *data* part — nodes plus forward/feedback
data arcs with their initial tokens.  Acknowledgement arcs are always
the exact reversal of data arcs with complementary initial tokens, so
they are derived (see :meth:`DataflowGraph.acknowledgement_arcs` and
the SDSP-PN construction in :mod:`repro.core.sdsp_pn`) rather than
stored; the storage optimiser in :mod:`repro.core.storage` manipulates
them explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..digraph import topological_order
from ..errors import DataflowError
from .actors import Actor, ActorKind

__all__ = ["ArcKind", "DataArc", "DataflowGraph"]


class ArcKind(enum.Enum):
    """Forward data arcs connect producers to consumers within one
    iteration; feedback arcs carry values to the *next* iteration and
    hold their initial tokens (the values live before iteration 0)."""

    FORWARD = "forward"
    FEEDBACK = "feedback"


@dataclass(frozen=True)
class DataArc:
    """A data dependence arc.

    ``source_port`` distinguishes the two outputs of a SWITCH actor
    (0 = true branch, 1 = false branch); every other actor has a single
    output port 0.  ``target_port`` selects the consumer's operand.
    ``initial_tokens`` is 0 on forward arcs and >= 1 on feedback arcs
    (static dataflow permits at most one token per arc, so in a valid
    SDSP it is exactly 1).
    """

    source: str
    target: str
    target_port: int
    kind: ArcKind = ArcKind.FORWARD
    source_port: int = 0
    initial_tokens: int = 0

    @property
    def identifier(self) -> str:
        """Stable arc name used for places in the SDSP-PN."""
        return f"{self.source}.{self.source_port}->{self.target}.{self.target_port}"

    @property
    def is_feedback(self) -> bool:
        return self.kind is ArcKind.FEEDBACK


class DataflowGraph:
    """A mutable static dataflow graph.

    Use :class:`repro.dataflow.builder.GraphBuilder` for ergonomic
    construction; this class provides the structural queries the rest
    of the library needs.
    """

    def __init__(self, name: str = "dataflow") -> None:
        self.name = name
        self._actors: Dict[str, Actor] = {}
        self._arcs: List[DataArc] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_actor(self, actor: Actor) -> Actor:
        if actor.name in self._actors:
            raise DataflowError(f"actor {actor.name!r} already exists")
        self._actors[actor.name] = actor
        return actor

    def add_arc(self, arc: DataArc) -> DataArc:
        if arc.source not in self._actors:
            raise DataflowError(f"arc source {arc.source!r} is not an actor")
        if arc.target not in self._actors:
            raise DataflowError(f"arc target {arc.target!r} is not an actor")
        target = self._actors[arc.target]
        if not 0 <= arc.target_port < max(target.arity, 1):
            raise DataflowError(
                f"target port {arc.target_port} out of range for actor "
                f"{arc.target!r} (arity {target.arity})"
            )
        source = self._actors[arc.source]
        max_source_port = 2 if source.kind is ActorKind.SWITCH else 1
        if not 0 <= arc.source_port < max_source_port:
            raise DataflowError(
                f"source port {arc.source_port} out of range for actor "
                f"{arc.source!r}"
            )
        if source.kind in (ActorKind.STORE, ActorKind.SINK):
            raise DataflowError(
                f"{source.kind.value} actor {arc.source!r} has no outputs"
            )
        for existing in self._arcs:
            if (
                existing.target == arc.target
                and existing.target_port == arc.target_port
            ):
                raise DataflowError(
                    f"input port {arc.target_port} of {arc.target!r} already "
                    "driven by another arc"
                )
        if arc.kind is ArcKind.FEEDBACK and arc.initial_tokens < 1:
            raise DataflowError(
                f"feedback arc {arc.identifier} must carry at least one "
                "initial token"
            )
        if arc.kind is ArcKind.FORWARD and arc.initial_tokens != 0:
            raise DataflowError(
                f"forward arc {arc.identifier} must start empty"
            )
        self._arcs.append(arc)
        return arc

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def actors(self) -> Tuple[Actor, ...]:
        return tuple(self._actors.values())

    @property
    def actor_names(self) -> Tuple[str, ...]:
        return tuple(self._actors)

    @property
    def arcs(self) -> Tuple[DataArc, ...]:
        return tuple(self._arcs)

    def actor(self, name: str) -> Actor:
        try:
            return self._actors[name]
        except KeyError:
            raise DataflowError(f"unknown actor {name!r}") from None

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def __len__(self) -> int:
        return len(self._actors)

    def in_arcs(self, actor: str) -> List[DataArc]:
        """Input arcs of ``actor`` sorted by target port."""
        arcs = [a for a in self._arcs if a.target == actor]
        arcs.sort(key=lambda a: a.target_port)
        return arcs

    def out_arcs(self, actor: str) -> List[DataArc]:
        arcs = [a for a in self._arcs if a.source == actor]
        arcs.sort(key=lambda a: (a.source_port, a.target, a.target_port))
        return arcs

    def forward_arcs(self) -> List[DataArc]:
        return [a for a in self._arcs if a.kind is ArcKind.FORWARD]

    def feedback_arcs(self) -> List[DataArc]:
        return [a for a in self._arcs if a.kind is ArcKind.FEEDBACK]

    def predecessors(self, actor: str) -> List[str]:
        return [a.source for a in self.in_arcs(actor)]

    def successors(self, actor: str) -> List[str]:
        return [a.target for a in self.out_arcs(actor)]

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def adjacency(self, include_feedback: bool = True) -> Dict[str, List[str]]:
        """The graph as a successor map over actor names (one entry per
        arc, so parallel arcs repeat), the input of :mod:`repro.digraph`."""
        successors: Dict[str, List[str]] = {name: [] for name in self._actors}
        for arc in self._arcs:
            if include_feedback or not arc.is_feedback:
                successors[arc.source].append(arc.target)
        return successors

    def forward_topological_order(self) -> List[str]:
        """Topological order of the forward subgraph, smallest actor
        name first among the ready ones.  Raises
        :class:`DataflowError` if forward arcs contain a cycle (a
        malformed graph — cycles must go through feedback arcs)."""
        order = topological_order(self.adjacency(include_feedback=False))
        if order is None:
            raise DataflowError(
                "forward data arcs contain a cycle; loop-carried values "
                "must use feedback arcs"
            )
        return order

    def has_loop_carried_dependence(self) -> bool:
        """DOALL detection at graph level: any feedback arc present?"""
        return any(a.is_feedback for a in self._arcs)

    def critical_path_length(self) -> int:
        """Longest forward-arc path counted in nodes — the paper's bound
        ``k`` on concurrently active iterations (Section 7)."""
        order = self.forward_topological_order()
        longest: Dict[str, int] = {name: 1 for name in order}
        for name in order:
            for arc in self.out_arcs(name):
                if arc.is_feedback:
                    continue
                longest[arc.target] = max(longest[arc.target], longest[name] + 1)
        return max(longest.values(), default=0)

    def acknowledgement_arcs(self) -> List[Tuple[str, str, DataArc]]:
        """The derived acknowledgement arcs: one per data arc, reversed,
        returned as ``(from_actor, to_actor, data_arc)`` triples.

        An acknowledgement for a forward arc starts with one token (the
        buffer is free); for a feedback arc it starts empty (the buffer
        holds the initial value)."""
        return [(a.target, a.source, a) for a in self._arcs]

    def copy(self, name: Optional[str] = None) -> "DataflowGraph":
        clone = DataflowGraph(name if name is not None else self.name)
        for actor in self._actors.values():
            clone.add_actor(actor)
        for arc in self._arcs:
            clone.add_arc(arc)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        feedback = sum(1 for a in self._arcs if a.is_feedback)
        return (
            f"DataflowGraph({self.name!r}, actors={len(self._actors)}, "
            f"arcs={len(self._arcs)}, feedback={feedback})"
        )
