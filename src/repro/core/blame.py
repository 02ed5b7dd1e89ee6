"""Causal blame: observed critical paths and wait-state attribution.

The structural side of the paper pins the achieved rate to a critical
cycle ``C*`` with cycle time ``α = max Ω(C)/M(C)``; the behavioral
side (the cyclic frustum) achieves exactly ``1/α``.  This module closes
the loop *empirically*: it rebuilds the enabling DAG of a real
simulation run (:mod:`repro.obs.causality`), walks last-arriving-token
edges backward to extract the **observed critical cycle**, and checks
it against the structural critical cycles from
:mod:`repro.petrinet.analysis` and the Howard witness from
:mod:`repro.petrinet.howard` — a powerful cross-check of both engines,
the provenance plumbing and the analysis layer at once.

Entry point: :func:`explain_compiled` takes a
:class:`~repro.pipeline.CompiledLoop` (optionally its SCP variant),
re-runs frustum detection with provenance instrumentation attached,
continues the simulation a few extra steady-state periods, and returns
an :class:`ExplainReport` with

* the observed critical cycle and its per-iteration length (which must
  converge to ``α`` — Theorem 4.x: past the transient every firing on
  the critical chain is separated by exactly one traversal of ``C*``);
* the per-transition wait-state decomposition (data / feedback / ack /
  resource / executing / idle, summing exactly to the simulated
  horizon);
* the blame chain answering "why is this loop running at ``1/α``?" as
  a human-readable causal walk.

``repro explain`` renders the report as text, JSON, an OpenMetrics
exposition of the wait-state cycles, or a Chrome trace with flow
events (:func:`write_flow_trace`); :func:`blame_summary` is the
schema-versioned dict the run ledger stores under ``timing.blame``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..obs.causality import (
    EDGE_ACK,
    EDGE_DATA,
    EDGE_FEEDBACK,
    EDGE_RESOURCE,
    EDGE_SELF,
    WAIT_KINDS,
    EnablingDag,
    EnablingEdge,
    Firing,
    WaitProfile,
    build_enabling_dag,
    wait_profiles,
)
from ..petrinet.marking import Marking
from ..petrinet.net import PetriNet

__all__ = [
    "BLAME_SCHEMA_VERSION",
    "ObservedCycle",
    "ExplainReport",
    "classifier_for",
    "observed_critical_path",
    "windowed_cycle_times",
    "explain_compiled",
    "blame_summary",
    "write_flow_trace",
    "wait_metrics_dump",
]

#: Version of the ``timing.blame`` ledger summary and the ``--json``
#: report shape.  Bump on any structural change; the dashboard renders
#: a placeholder card for records carrying any other version.
BLAME_SCHEMA_VERSION = 1


def classifier_for(net: PetriNet, initial: Marking):
    """Edge-kind classifier built from the net itself (preferred over
    the name heuristic): ``run``-annotated places are resource tokens,
    ``ack``-annotated places acknowledgements, and data places are
    *feedback* when the initial marking seeds them (loop-carried
    pre-state travels on initially marked data places) and forward
    data otherwise."""
    kinds: Dict[str, str] = {}
    for place in net.places:
        if place.annotation == "run":
            kinds[place.name] = EDGE_RESOURCE
        elif place.annotation == "ack":
            kinds[place.name] = EDGE_ACK
        elif initial[place.name] > 0:
            kinds[place.name] = EDGE_FEEDBACK
        else:
            kinds[place.name] = EDGE_DATA
    return lambda place: kinds.get(place, EDGE_DATA)


@dataclass(frozen=True)
class ObservedCycle:
    """The repeating segment of a backward blame walk, in forward time
    order and canonically rotated (lexicographically smallest
    transition first, like
    :meth:`~repro.petrinet.marked_graph.MarkedGraphView.simple_cycles`).

    ``span`` is the time one traversal takes; ``iterations`` how many
    firings of the anchor transition it advances; ``cycle_time`` their
    ratio — the observed per-iteration critical-path length, which in
    steady state equals the structural ``α`` exactly.
    """

    transitions: Tuple[str, ...]
    places: Tuple[Optional[str], ...]
    kinds: Tuple[str, ...]
    span: int
    iterations: int

    @property
    def cycle_time(self) -> Fraction:
        return Fraction(self.span, self.iterations)

    @property
    def is_self_loop(self) -> bool:
        return len(self.transitions) == 1 and self.places[0] is None

    def describe(self) -> str:
        if self.is_self_loop:
            return (
                f"{self.transitions[0]} (self-loop, tau = {self.span})"
            )
        return " -> ".join(self.transitions)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "transitions": list(self.transitions),
            "places": list(self.places),
            "kinds": list(self.kinds),
            "span": self.span,
            "iterations": self.iterations,
            "cycle_time": str(self.cycle_time),
        }


def _rotate(
    transitions: Sequence[str], places: Sequence, kinds: Sequence
) -> Tuple[Tuple[str, ...], Tuple, Tuple]:
    start = min(range(len(transitions)), key=transitions.__getitem__)
    rot = lambda seq: tuple(seq[start:]) + tuple(seq[:start])
    return rot(transitions), rot(places), rot(kinds)


def observed_critical_path(
    dag: EnablingDag,
    start: Optional[Firing] = None,
    limit: int = 4096,
) -> Tuple[Optional[ObservedCycle], List[EnablingEdge]]:
    """Walk binding edges backward from ``start`` (default: the run's
    last firing) until a transition repeats; the segment between its
    two occurrences is the observed critical cycle.

    Returns ``(cycle, chain)`` where ``chain`` is the full backward
    walk.  ``cycle`` is ``None`` when the walk drains into the
    transient (an initial-marking token or time 0) before any
    transition repeats — run a few extra steady-state periods to avoid
    that.
    """
    if start is None:
        start = dag.last_firing()
    if start is None:
        return None, []
    chain_nodes: List[Firing] = [start]
    chain_edges: List[EnablingEdge] = []
    position = {start.transition: 0}
    node = start
    while len(chain_nodes) <= limit:
        edge = dag.binding_edge(node)
        if edge is None or edge.source is None:
            return None, chain_edges  # reached the transient
        chain_edges.append(edge)
        node = edge.source
        first = position.get(node.transition)
        if first is not None:
            anchor = chain_nodes[first]
            cycle_edges = chain_edges[first:]
            # Forward time order: node fired first, anchor last.
            forward_nodes = [node] + list(reversed(chain_nodes[first + 1 :]))
            forward_edges = list(reversed(cycle_edges))
            transitions = tuple(f.transition for f in forward_nodes)
            places = tuple(e.place for e in forward_edges)
            kinds = tuple(e.kind for e in forward_edges)
            transitions, places, kinds = _rotate(transitions, places, kinds)
            iterations = anchor.index - node.index
            return (
                ObservedCycle(
                    transitions=transitions,
                    places=places,
                    kinds=kinds,
                    span=anchor.start - node.start,
                    iterations=max(iterations, 1),
                ),
                chain_edges,
            )
        position[node.transition] = len(chain_nodes)
        chain_nodes.append(node)
    return None, chain_edges


def windowed_cycle_times(
    dag: EnablingDag, transition: str, window: int
) -> List[Fraction]:
    """Per-iteration path lengths over sliding windows of ``window``
    firings of ``transition``: entry ``i`` is the mean start-to-start
    spacing over firings ``i .. i+window``.  Early (transient) entries
    may differ; past the transient every entry equals ``α``."""
    nodes = dag.by_transition.get(transition, [])
    if window < 1 or len(nodes) <= window:
        return []
    return [
        Fraction(nodes[i + window].start - nodes[i].start, window)
        for i in range(len(nodes) - window)
    ]


@dataclass
class ExplainReport:
    """Everything ``repro explain`` reports for one run."""

    loop: str
    engine: str
    model: str
    alpha: Fraction
    rate: Fraction
    frustum_start: int
    frustum_repeat: int
    period: int
    horizon: int
    critical_cycles: Tuple[Tuple[str, ...], ...]
    critical_self_loops: Tuple[str, ...]
    howard_cycle: Optional[Tuple[str, ...]]
    howard_self_loop: Optional[str]
    observed: Optional[ObservedCycle]
    observed_match: bool
    matches_howard: bool
    wait: Dict[str, WaitProfile]
    chain: List[EnablingEdge]
    dag: EnablingDag = field(repr=False)
    scp_bound: Optional[Fraction] = None

    @property
    def observed_rate(self) -> Optional[Fraction]:
        if self.observed is None:
            return None
        return 1 / self.observed.cycle_time

    def convergence(self, window: Optional[int] = None) -> List[Fraction]:
        """Windowed per-iteration path lengths of the observed cycle's
        anchor transition (window defaults to its firings per period)."""
        if self.observed is None:
            return []
        anchor = self.observed.transitions[0]
        if window is None:
            window = max(self.observed.iterations, 1)
        return windowed_cycle_times(self.dag, anchor, window)

    # -- serialisation -------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready report (``repro explain --json``).  Everything
        here is a deterministic function of the compiled loop."""
        return {
            "schema_version": BLAME_SCHEMA_VERSION,
            "loop": self.loop,
            "engine": self.engine,
            "model": self.model,
            "alpha": str(self.alpha),
            "rate": str(self.rate),
            "scp_rate_upper_bound": (
                str(self.scp_bound) if self.scp_bound is not None else None
            ),
            "frustum": {
                "start_time": self.frustum_start,
                "repeat_time": self.frustum_repeat,
                "period": self.period,
            },
            "horizon": self.horizon,
            "structural": {
                "critical_cycles": [list(c) for c in self.critical_cycles],
                "critical_self_loops": list(self.critical_self_loops),
                "howard_cycle": (
                    list(self.howard_cycle)
                    if self.howard_cycle is not None
                    else None
                ),
                "howard_self_loop": self.howard_self_loop,
            },
            "observed": (
                self.observed.to_payload()
                if self.observed is not None
                else None
            ),
            "observed_match": self.observed_match,
            "matches_howard": self.matches_howard,
            "wait_states": {
                name: profile.to_payload()
                for name, profile in sorted(self.wait.items())
            },
            "blame_chain": [edge.describe() for edge in self.chain],
        }

    def render_text(self) -> str:
        """The human-readable report."""
        lines = [
            f"explain {self.loop!r} ({self.model}, {self.engine} engine)",
            f"  structural cycle time alpha = {self.alpha} "
            f"(optimal rate {self.rate})",
        ]
        if self.scp_bound is not None:
            lines.append(
                f"  SCP resource bound (Theorem 5.2.2): rate <= "
                f"{self.scp_bound}"
            )
        if self.howard_cycle is not None:
            lines.append(
                "  Howard witness C*      : " + " -> ".join(self.howard_cycle)
            )
        elif self.howard_self_loop is not None:
            lines.append(
                f"  Howard witness C*      : self-loop of "
                f"{self.howard_self_loop}"
            )
        if self.observed is not None:
            lines.append(
                "  observed critical path : "
                + self.observed.describe()
                + f" (per-iteration length {self.observed.cycle_time})"
            )
            if self.observed_match:
                verdict = "matches a structural critical cycle"
                if self.matches_howard:
                    verdict = "matches the Howard witness C*"
                lines.append(f"  verdict                : {verdict} ✓")
            else:
                lines.append(
                    "  verdict                : no structural match "
                    "(resource-shaped or transient path)"
                )
        else:
            lines.append(
                "  observed critical path : walk drained into the "
                "transient (simulate more periods)"
            )
        lines.append(
            f"  frustum [{self.frustum_start}, {self.frustum_repeat}) "
            f"period {self.period}; horizon {self.horizon} cycles"
        )
        lines.append("")
        lines.append(
            "  wait states per transition (cycles over the horizon; "
            "exec+waits+idle = horizon):"
        )
        header = (
            f"  {'transition':<12} {'fired':>5} {'exec':>6} "
            + "".join(f"{kind:>9}" for kind in WAIT_KINDS)
            + f" {'idle':>6}"
        )
        lines.append(header)
        for name in sorted(self.wait):
            profile = self.wait[name]
            lines.append(
                f"  {name:<12} {profile.firings:>5} {profile.executing:>6} "
                + "".join(
                    f"{profile.waits.get(kind, 0):>9}" for kind in WAIT_KINDS
                )
                + f" {profile.idle:>6}"
            )
        percentile_rows = []
        for name in sorted(self.wait):
            for kind, stats in sorted(self.wait[name].percentiles.items()):
                if kind == EDGE_SELF or not stats:
                    continue
                p50, p95 = stats.get("p50"), stats.get("p95")
                if p50 is None or (p50 == 0 and p95 == 0):
                    continue
                percentile_rows.append(
                    f"  {name:<12} {kind:<9} p50={p50:g} p95={p95:g}"
                )
        if percentile_rows:
            lines.append("")
            lines.append("  per-firing wait percentiles (cycles):")
            lines.extend(percentile_rows)
        if self.chain:
            lines.append("")
            last = self.chain[0].target
            lines.append(
                f"  blame chain (last-arriving tokens, backward from "
                f"{last.label}):"
            )
            for edge in self.chain[:12]:
                lines.append("    " + edge.describe())
            if len(self.chain) > 12:
                lines.append(f"    ... {len(self.chain) - 12} more hop(s)")
        return "\n".join(lines)


def _detection_budget(timed_net) -> int:
    """Same generous budget as :func:`repro.petrinet.behavior.detect_frustum`."""
    n = max(1, len(timed_net.net.transition_names))
    total_duration = sum(timed_net.durations.values())
    return max(10_000, 4 * n**4, 16 * total_duration)


def _traced_run(timed_net, initial, policy, engine: str, periods: int):
    """Run frustum detection with provenance instrumentation attached,
    then continue the same simulator ``periods`` extra steady-state
    periods (so blame walks from the end of the run stay clear of the
    transient).  Returns ``(frustum, events)``."""
    from ..obs.events import Instrumentation, ListSink
    from ..petrinet.behavior import FrustumDetector
    from ..petrinet.event_sim import EventFrustumDetector

    sink = ListSink()
    obs = Instrumentation(sinks=[sink])
    if engine == "step":
        detector = FrustumDetector(
            timed_net, initial, policy, instrumentation=obs
        )
    elif engine == "event":
        detector = EventFrustumDetector(
            timed_net, initial, policy, instrumentation=obs
        )
    else:
        raise SimulationError(f"unknown engine {engine!r}")
    frustum = detector.detect(_detection_budget(timed_net))
    simulator = detector.simulator
    target = frustum.repeat_time + max(periods, 0) * max(frustum.length, 1)
    if engine == "step":
        while simulator.time <= target and not simulator.is_deadlocked():
            simulator.step()
    else:
        while True:
            next_time = simulator.next_event_time()
            if next_time is None or next_time > target:
                break
            simulator.advance()
    return frustum, sink.events


def explain_compiled(result, periods: int = 3) -> ExplainReport:
    """Build the full causal report for a compiled loop.

    When the compilation carries an SCP model (``pipeline_stages``),
    the SCP net is the one explained — its run-place tokens surface as
    resource waits — while the structural ``α`` still comes from the
    underlying SDSP-PN (the resource bound is reported separately).
    """
    from .rate import critical_cycles, scp_rate_upper_bound

    if result.scp is not None:
        from ..machine.policies import FifoRunPlacePolicy

        scp = result.scp
        timed_net, initial = scp.timed, scp.initial
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        model = f"SDSP-SCP-PN (l={scp.stages})"
        scp_bound: Optional[Fraction] = scp_rate_upper_bound(scp)
        classify = classifier_for(scp.net, scp.initial)
    else:
        timed_net, initial = result.pn.timed, result.pn.initial
        policy = None
        model = "SDSP-PN"
        scp_bound = None
        classify = classifier_for(result.pn.net, result.pn.initial)

    run_frustum, events = _traced_run(
        timed_net, initial, policy, result.engine, periods
    )
    dag = build_enabling_dag(events, classify)
    observed, chain = observed_critical_path(dag)
    wait = wait_profiles(dag, transitions=timed_net.net.transition_names)

    report = critical_cycles(result.pn)
    howard = result.pn.howard
    structural = tuple(c.transitions for c in report.critical_cycles)
    self_loops = tuple(report.critical_self_loops)
    observed_match = False
    matches_howard = False
    if observed is not None:
        if observed.is_self_loop:
            observed_match = observed.transitions[0] in self_loops
            matches_howard = (
                howard.critical_self_loop == observed.transitions[0]
            )
        else:
            observed_match = observed.transitions in structural
            matches_howard = (
                howard.critical_cycle is not None
                and howard.critical_cycle.transitions == observed.transitions
            )
    return ExplainReport(
        loop=result.translation.loop.name,
        engine=result.engine,
        model=model,
        alpha=1 / result.optimal_rate,
        rate=result.optimal_rate,
        frustum_start=run_frustum.start_time,
        frustum_repeat=run_frustum.repeat_time,
        period=run_frustum.length,
        horizon=dag.horizon,
        critical_cycles=structural,
        critical_self_loops=self_loops,
        howard_cycle=(
            howard.critical_cycle.transitions
            if howard.critical_cycle is not None
            else None
        ),
        howard_self_loop=howard.critical_self_loop,
        observed=observed,
        observed_match=observed_match,
        matches_howard=matches_howard,
        wait=wait,
        chain=chain,
        dag=dag,
        scp_bound=scp_bound,
    )


def blame_summary(report: ExplainReport) -> Dict[str, Any]:
    """The schema-versioned summary the ledger stores under the
    volatile ``timing.blame`` section and the dashboard's causality
    lane renders."""
    return {
        "schema_version": BLAME_SCHEMA_VERSION,
        "model": report.model,
        "alpha": str(report.alpha),
        "horizon": report.horizon,
        "observed_cycle": (
            report.observed.to_payload()
            if report.observed is not None
            else None
        ),
        "observed_match": report.observed_match,
        "matches_howard": report.matches_howard,
        "wait_states": {
            name: profile.to_payload()
            for name, profile in sorted(report.wait.items())
        },
    }


def wait_metrics_dump(report: ExplainReport) -> Dict[str, Any]:
    """A metrics-registry-shaped dump whose labeled counters carry the
    wait-state decomposition — rendered by
    :func:`repro.obs.openmetrics.render_openmetrics` (``repro explain
    --metrics-out``), exercising real label values end to end."""
    samples = []
    for name in sorted(report.wait):
        profile = report.wait[name]
        samples.append(
            {
                "labels": {"transition": name, "kind": "executing"},
                "value": profile.executing,
            }
        )
        samples.append(
            {
                "labels": {"transition": name, "kind": "idle"},
                "value": profile.idle,
            }
        )
        for kind in WAIT_KINDS:
            samples.append(
                {
                    "labels": {"transition": name, "kind": f"wait.{kind}"},
                    "value": profile.waits.get(kind, 0),
                }
            )
    return {
        "counters": {"repro.explain.horizon": report.horizon},
        "labeled_counters": {"repro.explain.wait.cycles": samples},
    }


def write_flow_trace(report: ExplainReport, path):
    """Write the enabling DAG as a Chrome trace: one lane (thread) per
    transition, one complete slice per firing, and one flow arrow per
    token-consumption edge (named by kind, slack in ``args``) — open in
    chrome://tracing or ui.perfetto.dev with flow events enabled.
    Written through :func:`repro.obs.trace_merge.write_trace`, so the
    document is deterministic and ``tools/trace_lint.py``-clean."""
    from ..obs.trace_merge import write_trace

    dag = report.dag
    lanes = sorted(dag.by_transition)
    tids = {name: index + 1 for index, name in enumerate(lanes)}
    meta: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": f"simulation:{report.loop}"},
        }
    ]
    for name in lanes:
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tids[name],
                "args": {"name": name},
            }
        )
    body: List[Dict[str, Any]] = []
    for firing in dag.firings:
        body.append(
            {
                "name": firing.transition,
                "cat": "firing",
                "ph": "X",
                "ts": firing.start,
                "dur": firing.duration,
                "pid": 0,
                "tid": tids[firing.transition],
                "args": {"index": firing.index},
            }
        )
    flow_id = 0
    for firing in dag.firings:
        for edge in dag.in_edges(firing):
            if edge.kind == EDGE_SELF or edge.source is None:
                continue
            flow_id += 1
            args = {
                "place": edge.place,
                "kind": edge.kind,
                "slack": edge.slack,
            }
            body.append(
                {
                    "name": edge.kind,
                    "cat": "flow",
                    "ph": "s",
                    "id": flow_id,
                    "ts": edge.arrival,
                    "pid": 0,
                    "tid": tids[edge.source.transition],
                    "args": args,
                }
            )
            body.append(
                {
                    "name": edge.kind,
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": firing.start,
                    "pid": 0,
                    "tid": tids[firing.transition],
                    "args": args,
                }
            )
    body.sort(key=lambda event: (event["ts"], event["pid"]))
    document = {
        "traceEvents": meta + body,
        "displayTimeUnit": "ms",
        "otherData": {
            "loop": report.loop,
            "model": report.model,
            "alpha": str(report.alpha),
            "flows": flow_id,
        },
    }
    return write_trace(document, path)
