"""Well-formedness checking for static dataflow graphs.

The SDSP definition (Section 3.2) constrains the graphs the rest of
the pipeline accepts: non-nested loop bodies whose forward arcs form a
DAG, loop-carried dependences of distance one carried by feedback arcs
with a single initial token, and conditionals expressed as well-formed
switch/merge subgraphs.  :func:`validate` checks these conditions and
returns a structured report; :func:`require_valid` raises on the first
error, so malformed graphs fail loudly at compile time rather than
deadlocking a simulation.  Building an :class:`~repro.core.sdsp.Sdsp`
calls it, so a graph is validated once per compile (by the
``translate`` stage) and on every raw graph given to ``Sdsp``,
:func:`~repro.core.sdsp_pn.build_sdsp_pn` or
:func:`~repro.core.rate.dependence_cycle_time`.  Unrolling a valid
graph keeps it valid (:func:`~repro.loops.unroll.unroll_graph`), so an
unrolled graph is not validated again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..digraph import is_weakly_connected
from ..errors import DataflowError
from .actors import ActorKind
from .graph import DataflowGraph

__all__ = ["ValidationReport", "validate", "require_valid"]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: hard ``errors`` (the graph is not a
    valid SDSP) and soft ``warnings`` (dead code and similar smells)."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(graph: DataflowGraph) -> ValidationReport:
    """Check SDSP admissibility; never raises."""
    report = ValidationReport()

    if len(graph) == 0:
        report.errors.append("graph has no actors")
        return report

    # Every data input port must be driven by exactly one arc (the graph
    # class enforces 'at most one'; here we require 'at least one').
    for actor in graph.actors:
        driven = {arc.target_port for arc in graph.in_arcs(actor.name)}
        for port in range(actor.arity):
            if port not in driven:
                report.errors.append(
                    f"input port {port} of actor {actor.name!r} is not driven"
                )

    # Forward arcs must be acyclic: cycles are only legal through
    # feedback arcs.
    try:
        graph.forward_topological_order()
    except DataflowError as error:
        report.errors.append(str(error))

    # Loop-carried dependences are from one iteration to the next, i.e.
    # feedback arcs carry exactly one initial token in an SDSP.
    for arc in graph.feedback_arcs():
        if arc.initial_tokens != 1:
            report.errors.append(
                f"feedback arc {arc.identifier} carries {arc.initial_tokens} "
                "initial tokens; the SDSP model requires exactly 1 "
                "(dependence distance one)"
            )

    # Switch/merge pairing sanity.
    switches = [a for a in graph.actors if a.kind is ActorKind.SWITCH]
    merges = [a for a in graph.actors if a.kind is ActorKind.MERGE]
    if merges and not switches:
        report.errors.append(
            "graph contains merge actors but no switch; a well-formed "
            "conditional subgraph needs both"
        )
    for actor in switches:
        used_ports = {arc.source_port for arc in graph.out_arcs(actor.name)}
        for port, branch in ((0, "true"), (1, "false")):
            if port not in used_ports:
                report.errors.append(
                    f"switch {actor.name!r} has an unconsumed {branch} branch; "
                    "its dummy tokens would accumulate"
                )

    # Dead code detection (warnings): non-store actors nobody consumes.
    for actor in graph.actors:
        if actor.kind in (ActorKind.STORE, ActorKind.SINK):
            continue
        if not graph.out_arcs(actor.name):
            report.warnings.append(
                f"actor {actor.name!r} has no consumers (dead code)"
            )

    # Unreferenced dangling sources of STORE chains are fine; but check
    # the graph is weakly connected so the pipeline is one loop body.
    if len(graph) > 1 and not is_weakly_connected(graph.adjacency()):
        report.warnings.append(
            "graph is not weakly connected; it looks like several "
            "independent loop bodies"
        )

    return report


def require_valid(graph: DataflowGraph) -> None:
    """Raise :class:`DataflowError` listing every validation error."""
    report = validate(graph)
    if not report.ok:
        raise DataflowError(
            f"dataflow graph {graph.name!r} is not a valid SDSP:\n  - "
            + "\n  - ".join(report.errors)
        )
