"""Schedule validation: dependences, resources, rate and semantics.

A derived schedule is only trustworthy if it is checked against
everything it promised.  The schedule is a prologue plus a kernel that
repeats forever (§3.3, Fig. 1(g)), and the structural checks prove
their property for *every* iteration, not a replayed prefix:

* **Dependence feasibility** — for every place of the SDSP-PN (data and
  acknowledgement alike) with producer ``u``, consumer ``v`` and ``r``
  initial tokens, FIFO matching forces ``start_v(i) >= start_u(i − r) +
  latency(u)`` for all iterations ``i >= r``.  This single rule covers
  forward dependences, loop-carried dependences, and the buffer
  (acknowledgement) constraints.  Past its prologue of ``P`` iterations
  an instruction issues at ``start(i + k) = start(i) + II``, so once
  ``i >= max(P_v, P_u + r)`` the slack ``start_v(i) − start_u(i − r)``
  is k-periodic: checking ``r <= i < max(P_v, P_u + r) + k`` proves the
  place for all iterations (the periodic-schedule argument).
* **Resource feasibility** — at most ``capacity`` instructions issue
  per cycle (1 for the single clean pipeline).  Kernel issues are
  counted per slot modulo II (a modulo reservation table), which bounds
  every cycle after the prologue; each prologue cycle is counted
  exactly, kernel issues that overlap it included.
* **Rate achievement** — the kernel's ``k / II`` equals the optimal
  rate from critical-cycle analysis (for the ideal model), making the
  schedule time-optimal, or the documented resource bound (SCP).

Both structural checks are linear in the prologue plus the kernel.
:func:`verify_schedule` runs them with the rate check; the compiler's
``verify`` and ``scp_verify`` stages call it on every compile.

Semantic preservation is checked apart, by the tests:
:func:`execute_schedule` runs a finite prefix of the schedule with real
values, producer results flowing to consumers at the scheduled
iteration distances, and the output arrays are compared against a
direct interpretation of the loop.  No compiler stage runs it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..dataflow.actors import ActorKind, EvalContext
from ..dataflow.graph import DataflowGraph
from ..errors import ScheduleError
from ..obs.metrics import timed
from .schedule import PipelinedSchedule, ScheduledOp
from .sdsp_pn import SdspPetriNet

__all__ = [
    "VerificationReport",
    "verify_dependences",
    "verify_resource",
    "verify_rate",
    "execute_schedule",
    "verify_schedule",
]


@dataclass
class VerificationReport:
    """Aggregated validation outcome; ``violations`` is empty on
    success."""

    violations: List[str] = field(default_factory=list)
    checked_constraints: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self) -> None:
        if self.violations:
            raise ScheduleError(
                "schedule verification failed:\n  - "
                + "\n  - ".join(self.violations[:20])
            )


def verify_dependences(
    pn: SdspPetriNet,
    schedule: PipelinedSchedule,
    *,
    latency_of: Optional[Callable[[str], int]] = None,
) -> VerificationReport:
    """Check every place's FIFO precedence constraint for every
    iteration.

    A place ``u -> v`` with ``r`` tokens is checked for ``r <= i <
    max(P_v, P_u + r) + k``; past that window its slack repeats with
    period k, so the window is the whole proof.  ``latency_of`` maps a
    producer to the delay before its token is available; it defaults
    to the net's execution times.  For a schedule meant for an
    ``l``-stage pipeline pass ``lambda t: l``.
    """
    if latency_of is None:
        latency_of = pn.durations.__getitem__
    report = VerificationReport()
    scheduled = set(schedule.instructions)
    k = schedule.iterations_per_kernel
    start_of = schedule.start_of
    for place, producer, consumer, tokens in pn.edges:
        if producer not in scheduled or consumer not in scheduled:
            continue
        latency = latency_of(producer)
        horizon = k + max(
            schedule.prologue_length(consumer),
            schedule.prologue_length(producer) + tokens,
        )
        report.checked_constraints += horizon - tokens
        for i in range(tokens, horizon):
            consumer_start = start_of(consumer, i)
            ready = start_of(producer, i - tokens) + latency
            if consumer_start < ready:
                report.violations.append(
                    f"place {place!r}: {consumer!r} iteration {i} starts at "
                    f"{consumer_start} before {producer!r} iteration "
                    f"{i - tokens} is ready at {ready}"
                )
    return report


def verify_resource(
    schedule: PipelinedSchedule,
    *,
    capacity: int = 1,
    instructions: Optional[Sequence[str]] = None,
) -> VerificationReport:
    """At most ``capacity`` issues per cycle among ``instructions``
    (default: all scheduled instructions), in every cycle.

    Kernel entry ``(rel, x, base)`` issues at ``start_time + rel +
    m·II`` for every ``m >= 0``, so a cycle's kernel issues are at most
    its slot's count in the modulo reservation table (``rel mod II``),
    and equal to it once every entry of the slot has started.  Checking
    each slot, plus each prologue cycle with the kernel issues that
    overlap it, covers every cycle of the unbounded schedule.
    """
    report = VerificationReport()
    keep = set(instructions) if instructions is not None else None
    ii = schedule.initiation_interval
    start = schedule.start_time
    slots: Dict[int, List[int]] = {}
    for rel, name, _base in schedule.kernel:
        if keep is None or name in keep:
            slots.setdefault(rel % ii, []).append(rel)
    for rels in slots.values():
        rels.sort()
    prologue: Dict[int, int] = {}
    for op in schedule.prologue:
        if keep is None or op.instruction in keep:
            prologue[op.time] = prologue.get(op.time, 0) + 1
    for time, count in sorted(prologue.items()):
        # plus the kernel entries of this cycle's slot started by now
        offset = time - start
        count += bisect_right(slots.get(offset % ii, ()), offset)
        report.checked_constraints += 1
        if count > capacity:
            report.violations.append(
                f"cycle {time}: {count} instructions issued, capacity "
                f"{capacity}"
            )
    for slot, rels in sorted(slots.items()):
        report.checked_constraints += 1
        if len(rels) > capacity:
            report.violations.append(
                f"kernel slot {slot}: {len(rels)} instructions issued at "
                f"cycle {start + rels[-1]} and every {ii} cycles after, "
                f"capacity {capacity}"
            )
    return report


def verify_rate(
    schedule: PipelinedSchedule, expected_rate: Fraction
) -> VerificationReport:
    """The kernel rate must equal the analytically optimal rate."""
    report = VerificationReport()
    report.checked_constraints += 1
    if schedule.rate != expected_rate:
        report.violations.append(
            f"schedule rate {schedule.rate} differs from expected "
            f"{expected_rate}"
        )
    return report


def execute_schedule(
    graph: DataflowGraph,
    schedule: PipelinedSchedule,
    arrays: Optional[Mapping[str, Sequence[Any]]] = None,
    iterations: int = 8,
    initial_values: Optional[Mapping[str, Any]] = None,
) -> Dict[str, List[Any]]:
    """Execute the scheduled instruction instances with real values.

    Instances run in issue order.  Operand values flow along the data
    arcs at the arc's iteration distance (its initial token count);
    LOAD/STORE actors absent from the schedule (abstract mode) are
    evaluated implicitly at the consumer/producer's iteration.  Returns
    the per-array output streams, to be compared against the reference
    interpretation.
    """
    arrays = dict(arrays or {})
    initial_values = dict(initial_values or {})
    context = EvalContext(arrays)
    scheduled = set(schedule.instructions)

    # values[(actor, iteration)][port] -> value
    values: Dict[Tuple[str, int], List[Any]] = {}

    def value_of(actor_name: str, iteration: int, port: int, arc_id: str) -> Any:
        if iteration < 0:
            if arc_id in initial_values:
                return initial_values[arc_id]
            return 0
        actor = graph.actor(actor_name)
        if actor.kind is ActorKind.LOAD and actor_name not in scheduled:
            array = arrays[actor.param("array")]
            return array[iteration + actor.param("offset", 0)]
        key = (actor_name, iteration)
        if key not in values:
            raise ScheduleError(
                f"operand of iteration {iteration} of {actor_name!r} "
                "consumed before it was produced — dependence violation"
            )
        return values[key][port]

    stores: Dict[str, Dict[int, Any]] = {}

    def run_instance(name: str, iteration: int) -> None:
        actor = graph.actor(name)
        inputs = []
        for arc in graph.in_arcs(name):
            inputs.append(
                value_of(
                    arc.source,
                    iteration - arc.initial_tokens,
                    arc.source_port,
                    arc.identifier,
                )
            )
        if actor.kind is ActorKind.LOAD:
            array = arrays[actor.param("array")]
            values[(name, iteration)] = [
                array[iteration + actor.param("offset", 0)]
            ]
            return
        if actor.kind is ActorKind.STORE:
            stores.setdefault(actor.param("array"), {})[iteration] = inputs[0]
            return
        outputs = actor.evaluate(inputs, context)
        values[(name, iteration)] = outputs

    for op in schedule.expand(iterations):
        run_instance(op.instruction, op.iteration)

    # Stores absent from the schedule (abstract mode): their value is
    # the producer's output at the same iteration.
    for actor in graph.actors:
        if actor.kind is not ActorKind.STORE or actor.name in scheduled:
            continue
        (arc,) = graph.in_arcs(actor.name)
        out: Dict[int, Any] = {}
        for iteration in range(iterations):
            key = (arc.source, iteration - arc.initial_tokens)
            if key in values:
                out[iteration] = values[key][arc.source_port]
        stores[actor.param("array")] = out

    return {
        array: [mapping[i] for i in sorted(mapping)]
        for array, mapping in stores.items()
    }


@timed("core.verify_schedule")
def verify_schedule(
    pn: SdspPetriNet,
    schedule: PipelinedSchedule,
    *,
    expected_rate: Optional[Fraction] = None,
    capacity: Optional[int] = None,
    latency_of: Optional[Callable[[str], int]] = None,
) -> VerificationReport:
    """Run the structural checks together and merge the reports."""
    combined = VerificationReport()
    for report in [
        verify_dependences(pn, schedule, latency_of=latency_of),
        (
            verify_resource(schedule, capacity=capacity)
            if capacity is not None
            else VerificationReport()
        ),
        (
            verify_rate(schedule, expected_rate)
            if expected_rate is not None
            else VerificationReport()
        ),
    ]:
        combined.violations.extend(report.violations)
        combined.checked_constraints += report.checked_constraints
    return combined
