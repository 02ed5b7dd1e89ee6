"""Untimed Petri-net structure.

A Petri net is the triple ``(P, T, A)`` of Appendix A.1 of the paper:
a set of *places*, a set of *transitions*, and a set of directed arcs
connecting places to transitions (token consumption) and transitions to
places (token production).  This module provides the structural layer
only — markings live in :mod:`repro.petrinet.marking` and time in
:mod:`repro.petrinet.timed`.

A net is built one element at a time (:meth:`PetriNet.add_place`,
:meth:`~PetriNet.add_transition`, :meth:`~PetriNet.add_arc`), which
rewriting passes such as the storage optimiser use, or in one bulk
pass from rows of ``(place, annotation, producers, consumers)``
(:meth:`PetriNet.from_rows`), which the SDSP-PN and SDSP-SCP-PN
constructions use: same checks, no method call per arc.  The net keeps
names, annotations and adjacency lists; a :class:`Place` or
:class:`Transition` record is built when one is read.

Places and transitions are identified by string names, unique within
their net.  The dot-notation of the paper (``•t`` for input places of a
transition, ``t•`` for output places, and symmetrically for places) is
exposed as :meth:`PetriNet.preset` and :meth:`PetriNet.postset`.

>>> net = PetriNet(name="ring")
>>> _ = net.add_transition("a")
>>> _ = net.add_transition("b")
>>> _ = net.add_place("a_to_b")
>>> _ = net.add_arc("a", "a_to_b")
>>> _ = net.add_arc("a_to_b", "b")
>>> net.input_places("b")
('a_to_b',)
>>> net.preset("a_to_b"), net.postset("a_to_b")
(('a',), ('b',))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetConstructionError

__all__ = ["Place", "Transition", "Arc", "PetriNet", "PlaceRow"]

#: One place of a net built by :meth:`PetriNet.from_rows`:
#: ``(name, annotation, producers, consumers)``.
PlaceRow = Tuple[str, str, Sequence[str], Sequence[str]]


@dataclass(frozen=True)
class Place:
    """A place (drawn as a circle).  ``annotation`` is free-form metadata
    used by higher layers, e.g. ``"data"`` / ``"ack"`` for SDSP-PN places
    or ``"run"`` for the SCP run place."""

    name: str
    annotation: str = ""


@dataclass(frozen=True)
class Transition:
    """A transition (drawn as a bar).  ``annotation`` carries metadata
    such as ``"sdsp"`` versus ``"dummy"`` for series-expanded nets."""

    name: str
    annotation: str = ""


@dataclass(frozen=True)
class Arc:
    """A directed arc.  Exactly one endpoint is a place and the other a
    transition; ``source_is_place`` records the direction."""

    source: str
    target: str
    source_is_place: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source} -> {self.target}"


def _require_distinct(
    place: str, producers: Sequence[str], consumers: Sequence[str]
) -> None:
    """Reject a :data:`PlaceRow` that names one arc twice."""
    for ends, arc in (
        (producers, "{1!r} -> {0!r}"),
        (consumers, "{0!r} -> {1!r}"),
    ):
        if len(set(ends)) < len(ends):
            twice = next(t for i, t in enumerate(ends) if t in ends[:i])
            raise NetConstructionError(
                "duplicate arc " + arc.format(place, twice)
            )


class PetriNet:
    """A mutable Petri-net structure ``(P, T, A)``.

    The class enforces the structural well-formedness conditions of the
    definition: non-empty disjoint place/transition name spaces and arcs
    only between a place and a transition (in either direction).

    Typical construction::

        net = PetriNet("example")
        net.add_place("p1", tokens_hint=1)
        net.add_transition("t1")
        net.add_arc("p1", "t1")   # consumption arc
        net.add_arc("t1", "p1")   # production arc
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        # name -> annotation; Place/Transition records are built on read
        self._places: Dict[str, str] = {}
        self._transitions: Dict[str, str] = {}
        # Adjacency, kept in insertion order for deterministic iteration.
        # Each arc appears in exactly two lists, so the lists are the
        # arc set.
        self._place_inputs: Dict[str, List[str]] = {}
        self._place_outputs: Dict[str, List[str]] = {}
        self._transition_inputs: Dict[str, List[str]] = {}
        self._transition_outputs: Dict[str, List[str]] = {}

    @classmethod
    def from_rows(
        cls,
        name: str,
        transitions: Iterable[Tuple[str, str]],
        places: Iterable[PlaceRow],
    ) -> "PetriNet":
        """Build a whole net in one pass.

        ``transitions`` lists ``(name, annotation)`` pairs and
        ``places`` lists :data:`PlaceRow` entries ``(name, annotation,
        producers, consumers)``, each in net order; the arcs are
        ``producer -> place`` and ``place -> consumer`` for every row,
        appended to each transition's arc lists in row order.  The net
        is the one :meth:`add_transition`, :meth:`add_place` and
        :meth:`add_arc` calls in that order would build, and the same
        checks are made: every name fresh and non-empty, every arc
        endpoint a known transition, no arc twice.
        """
        net = cls(name)
        transition_names = net._transitions
        transition_inputs = net._transition_inputs
        transition_outputs = net._transition_outputs
        for transition, annotation in transitions:
            if not transition:
                raise NetConstructionError("empty names are not allowed")
            if transition in transition_names:
                raise NetConstructionError(
                    f"name {transition!r} already used in net"
                )
            transition_names[transition] = annotation
            transition_inputs[transition] = []
            transition_outputs[transition] = []
        place_names = net._places
        place_inputs = net._place_inputs
        place_outputs = net._place_outputs
        for place, annotation, producers, consumers in places:
            if not place:
                raise NetConstructionError("empty names are not allowed")
            if place in place_names or place in transition_names:
                raise NetConstructionError(f"name {place!r} already used in net")
            place_names[place] = annotation
            place_inputs[place] = list(producers)
            place_outputs[place] = list(consumers)
            for producer in producers:
                if producer not in transition_outputs:
                    raise NetConstructionError(
                        f"unknown arc source {producer!r} of place {place!r}"
                    )
                transition_outputs[producer].append(place)
            for consumer in consumers:
                if consumer not in transition_inputs:
                    raise NetConstructionError(
                        f"unknown arc target {consumer!r} of place {place!r}"
                    )
                transition_inputs[consumer].append(place)
            if len(producers) > 1 or len(consumers) > 1:
                _require_distinct(place, producers, consumers)
        return net

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_place(self, name: str, annotation: str = "") -> Place:
        """Add a place.  Raises if the name is already used by a place or
        a transition (the two name spaces must be disjoint)."""
        self._check_fresh(name)
        self._places[name] = annotation
        self._place_inputs[name] = []
        self._place_outputs[name] = []
        return Place(name, annotation)

    def add_transition(self, name: str, annotation: str = "") -> Transition:
        """Add a transition.  Raises on name collision."""
        self._check_fresh(name)
        self._transitions[name] = annotation
        self._transition_inputs[name] = []
        self._transition_outputs[name] = []
        return Transition(name, annotation)

    def add_arc(self, source: str, target: str) -> Arc:
        """Add a directed arc between a place and a transition.

        The direction is inferred from which endpoint is a place.  Arcs
        between two places or two transitions are rejected, as are
        duplicate arcs and arcs with unknown endpoints.
        """
        source_is_place = source in self._places
        target_is_place = target in self._places
        if source_is_place == target_is_place:
            if source not in self._places and source not in self._transitions:
                raise NetConstructionError(f"unknown arc source {source!r}")
            if target not in self._places and target not in self._transitions:
                raise NetConstructionError(f"unknown arc target {target!r}")
            kind = "places" if source_is_place else "transitions"
            raise NetConstructionError(
                f"arc {source!r} -> {target!r} connects two {kind}; arcs must "
                "join a place and a transition"
            )
        if not source_is_place and source not in self._transitions:
            raise NetConstructionError(f"unknown arc source {source!r}")
        if not target_is_place and target not in self._transitions:
            raise NetConstructionError(f"unknown arc target {target!r}")
        if self._has_arc(source, target):
            raise NetConstructionError(f"duplicate arc {source!r} -> {target!r}")
        if source_is_place:
            self._place_outputs[source].append(target)
            self._transition_inputs[target].append(source)
        else:
            self._transition_outputs[source].append(target)
            self._place_inputs[target].append(source)
        return Arc(source, target, source_is_place)

    def remove_arc(self, source: str, target: str) -> None:
        """Remove an existing arc (used by net-rewriting passes such as
        the storage optimiser)."""
        if not self._has_arc(source, target):
            raise NetConstructionError(f"no arc {source!r} -> {target!r} to remove")
        if source in self._places:
            self._place_outputs[source].remove(target)
            self._transition_inputs[target].remove(source)
        else:
            self._transition_outputs[source].remove(target)
            self._place_inputs[target].remove(source)

    def _has_arc(self, source: str, target: str) -> bool:
        if source in self._places:
            return target in self._place_outputs[source]
        if source in self._transitions:
            return target in self._transition_outputs[source]
        return False

    def remove_place(self, name: str) -> None:
        """Remove a place and all arcs touching it."""
        if name not in self._places:
            raise NetConstructionError(f"unknown place {name!r}")
        for transition in list(self._place_inputs[name]):
            self.remove_arc(transition, name)
        for transition in list(self._place_outputs[name]):
            self.remove_arc(name, transition)
        del self._places[name]
        del self._place_inputs[name]
        del self._place_outputs[name]

    def _check_fresh(self, name: str) -> None:
        if name in self._places or name in self._transitions:
            raise NetConstructionError(f"name {name!r} already used in net")
        if not name:
            raise NetConstructionError("empty names are not allowed")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def places(self) -> Tuple[Place, ...]:
        return tuple(Place(*item) for item in self._places.items())

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(Transition(*item) for item in self._transitions.items())

    @property
    def place_names(self) -> Tuple[str, ...]:
        return tuple(self._places)

    @property
    def transition_names(self) -> Tuple[str, ...]:
        return tuple(self._transitions)

    @property
    def arcs(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(
            [(t, p) for p, ts in self._place_inputs.items() for t in ts]
            + [(p, t) for p, ts in self._place_outputs.items() for t in ts]
        )

    def has_place(self, name: str) -> bool:
        return name in self._places

    def has_transition(self, name: str) -> bool:
        return name in self._transitions

    def place(self, name: str) -> Place:
        try:
            return Place(name, self._places[name])
        except KeyError:
            raise NetConstructionError(f"unknown place {name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return Transition(name, self._transitions[name])
        except KeyError:
            raise NetConstructionError(f"unknown transition {name!r}") from None

    def annotation(self, name: str) -> str:
        """The annotation of place or transition ``name``, read without
        building its :class:`Place` or :class:`Transition` record."""
        if name in self._places:
            return self._places[name]
        if name in self._transitions:
            return self._transitions[name]
        raise NetConstructionError(f"unknown node {name!r}")

    # Dot notation ------------------------------------------------------
    def preset(self, name: str) -> Tuple[str, ...]:
        """``•x``: input transitions of a place, or input places of a
        transition."""
        if name in self._places:
            return tuple(self._place_inputs[name])
        if name in self._transitions:
            return tuple(self._transition_inputs[name])
        raise NetConstructionError(f"unknown node {name!r}")

    def postset(self, name: str) -> Tuple[str, ...]:
        """``x•``: output transitions of a place, or output places of a
        transition."""
        if name in self._places:
            return tuple(self._place_outputs[name])
        if name in self._transitions:
            return tuple(self._transition_outputs[name])
        raise NetConstructionError(f"unknown node {name!r}")

    def input_places(self, transition: str) -> Tuple[str, ...]:
        """``•t`` for a transition ``t``."""
        if transition not in self._transitions:
            raise NetConstructionError(f"unknown transition {transition!r}")
        return tuple(self._transition_inputs[transition])

    def output_places(self, transition: str) -> Tuple[str, ...]:
        """``t•`` for a transition ``t``."""
        if transition not in self._transitions:
            raise NetConstructionError(f"unknown transition {transition!r}")
        return tuple(self._transition_outputs[transition])

    def input_transitions(self, place: str) -> Tuple[str, ...]:
        """``•p`` for a place ``p``."""
        if place not in self._places:
            raise NetConstructionError(f"unknown place {place!r}")
        return tuple(self._place_inputs[place])

    def output_transitions(self, place: str) -> Tuple[str, ...]:
        """``p•`` for a place ``p``."""
        if place not in self._places:
            raise NetConstructionError(f"unknown place {place!r}")
        return tuple(self._place_outputs[place])

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def is_marked_graph(self) -> bool:
        """True iff every place has exactly one input and one output
        transition (Definition A.5.1)."""
        return all(
            len(self._place_inputs[p]) == 1 and len(self._place_outputs[p]) == 1
            for p in self._places
        )

    def structural_conflicts(self) -> Tuple[str, ...]:
        """Places with more than one output transition (``|p•| > 1``) —
        the necessary condition for choice (Appendix A.4)."""
        return tuple(p for p in self._places if len(self._place_outputs[p]) > 1)

    def has_structural_conflict(self) -> bool:
        return bool(self.structural_conflicts())

    def incidence_matrix(self) -> "List[List[int]]":
        """The place × transition incidence matrix ``C`` with
        ``C[p][t] = produced(t, p) - consumed(t, p)``.

        Row/column order follows :attr:`place_names` and
        :attr:`transition_names`.  Self-loop place/transition pairs
        contribute zero, as usual.
        """
        place_index = {p: i for i, p in enumerate(self._places)}
        transition_index = {t: j for j, t in enumerate(self._transitions)}
        matrix = [[0] * len(transition_index) for _ in place_index]
        for place, row in zip(self._places, matrix):
            for transition in self._place_outputs[place]:  # consumption
                row[transition_index[transition]] -= 1
            for transition in self._place_inputs[place]:  # production
                row[transition_index[transition]] += 1
        return matrix

    def transition_adjacency(self) -> Dict[str, List[Tuple[str, str]]]:
        """For each transition ``u``, the list of ``(place, v)`` pairs such
        that ``u -> place -> v``.  Only defined for marked graphs, where
        each place has a unique consumer; on other nets the place's every
        consumer contributes a pair."""
        adjacency: Dict[str, List[Tuple[str, str]]] = {
            t: [] for t in self._transitions
        }
        for place in self._places:
            for producer in self._place_inputs[place]:
                for consumer in self._place_outputs[place]:
                    adjacency[producer].append((place, consumer))
        return adjacency

    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """Structural deep copy (annotations preserved)."""
        clone = PetriNet(name if name is not None else self.name)
        for place, annotation in self._places.items():
            clone.add_place(place, annotation)
        for transition, annotation in self._transitions.items():
            clone.add_transition(transition, annotation)
        for source, target in sorted(self.arcs):
            clone.add_arc(source, target)
        return clone

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._places or name in self._transitions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arcs = sum(map(len, self._place_inputs.values())) + sum(
            map(len, self._place_outputs.values())
        )
        return (
            f"PetriNet({self.name!r}, |P|={len(self._places)}, "
            f"|T|={len(self._transitions)}, |A|={arcs})"
        )
