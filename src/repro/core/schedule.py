"""Time-optimal loop schedules derived from cyclic frustums
(Figure 1(g) and Section 3.3).

A software-pipelined schedule has two parts:

* a **prologue** — the transient firings before the steady state is
  entered (the behavior graph before the initial instantaneous state);
* a **kernel** — the repeating pattern: ``initiation interval`` (II)
  cycles long, covering ``iterations_per_kernel`` (k) loop iterations.

From the frustum these fall out directly: II is the frustum length
``p = Ω(C*)`` and k its uniform transition count ``M(C*)``; the
schedule is *time-optimal* because its rate ``k / II`` equals the
net's optimal computation rate (Appendix A.7) — a fact the test suite
checks for every Livermore loop rather than assuming.

Instances are labelled with absolute iteration numbers so the schedule
can be expanded, validated against dependences and resources, and
executed semantically (:mod:`repro.core.verify`).

>>> from repro.loops import parse_loop, translate
>>> from repro.core import build_sdsp_pn
>>> from repro.petrinet import detect_frustum
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> frustum, behavior = detect_frustum(pn.timed, pn.initial)
>>> schedule = derive_schedule(frustum, behavior)
>>> schedule.initiation_interval, schedule.iterations_per_kernel
(1, 1)
>>> schedule.rate
Fraction(1, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..errors import ScheduleError
from ..obs.metrics import timed
from ..petrinet.behavior import BehaviorGraph, CyclicFrustum

__all__ = ["ScheduledOp", "PipelinedSchedule", "derive_schedule"]


@dataclass(frozen=True)
class ScheduledOp:
    """One instruction instance: ``instruction`` of loop iteration
    ``iteration`` issues at absolute ``time``."""

    time: int
    instruction: str
    iteration: int


@dataclass
class PipelinedSchedule:
    """A software-pipelined (prologue + kernel) schedule.

    ``kernel`` entries are ``(relative_time, instruction,
    base_iteration)``: in the m-th kernel repetition the instance
    executes iteration ``base_iteration + m·k`` at absolute time
    ``start_time + m·II + relative_time``.

    Construction indexes the schedule once per instruction (prologue
    issue times by iteration, then the kernel offsets in issue order),
    so :meth:`start_of` is O(1).  An instruction whose prologue
    iterations are not ``0 .. P-1``, or whose kernel entries are not
    exactly ``k`` with bases ``P .. P+k-1`` in issue order, is rejected
    with :class:`~repro.errors.ScheduleError`.  The lists are not
    re-indexed afterwards: build a new schedule rather than mutate one.
    """

    prologue: List[ScheduledOp]
    kernel: List[Tuple[int, str, int]]
    start_time: int
    initiation_interval: int
    iterations_per_kernel: int
    instructions: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.initiation_interval <= 0:
            raise ScheduleError("initiation interval must be positive")
        if self.iterations_per_kernel <= 0:
            raise ScheduleError("kernel must cover at least one iteration")
        self._rows = _index(self)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def rate(self) -> Fraction:
        """Steady-state computation rate: iterations per cycle."""
        return Fraction(self.iterations_per_kernel, self.initiation_interval)

    @property
    def kernel_span(self) -> int:
        """How many distinct iterations the kernel overlaps — the degree
        of software pipelining (1 = no overlap)."""
        if not self.kernel:
            return 0
        per_instruction: Dict[str, List[int]] = {}
        for _, instruction, base in self.kernel:
            per_instruction.setdefault(instruction, []).append(base)
        lows = [min(v) for v in per_instruction.values()]
        highs = [max(v) for v in per_instruction.values()]
        return max(highs) - min(lows) + 1

    # ------------------------------------------------------------------
    # Lookup / expansion
    # ------------------------------------------------------------------
    def start_of(self, instruction: str, iteration: int) -> int:
        """Issue time of one instruction instance, in O(1)."""
        row = self._rows.get(instruction)
        if row is None:
            raise ScheduleError(f"unknown instruction {instruction!r}")
        if iteration < 0:
            raise ScheduleError(
                f"iteration {iteration} of {instruction!r} precedes the "
                "schedule"
            )
        return self._issue(row, iteration)

    def prologue_length(self, instruction: str) -> int:
        """``P``: how many iterations of ``instruction`` the prologue
        issues.  From iteration ``P`` on its issue times are
        k-periodic: ``start_of(i + k) == start_of(i) + II``."""
        row = self._rows.get(instruction)
        if row is None:
            raise ScheduleError(f"unknown instruction {instruction!r}")
        return len(row.prologue)

    def _issue(self, row: _IssueRow, iteration: int) -> int:
        prologue = row.prologue
        if iteration < len(prologue):
            return prologue[iteration]
        m, j = divmod(iteration - len(prologue), self.iterations_per_kernel)
        return self.start_time + m * self.initiation_interval + row.offsets[j]

    def expand(self, iterations: int) -> List[ScheduledOp]:
        """All instances covering iterations ``0 .. iterations-1`` of
        every instruction, sorted by time then instruction name."""
        ops = [
            ScheduledOp(self._issue(row, iteration), name, iteration)
            for name, row in self._rows.items()
            for iteration in range(iterations)
        ]
        ops.sort(key=lambda op: (op.time, op.instruction, op.iteration))
        return ops

    def kernel_rows(self) -> List[Tuple[int, List[Tuple[str, int]]]]:
        """Kernel as Figure 1(g)-style rows: for each relative cycle,
        the instructions issued with their iteration offsets."""
        rows: Dict[int, List[Tuple[str, int]]] = {}
        for rel, name, base in sorted(self.kernel):
            rows.setdefault(rel, []).append((name, base))
        return sorted(rows.items())


class _IssueRow(NamedTuple):
    """One instruction's row of the schedule index: the issue time of
    each prologue iteration ``0 .. P-1``, then the ``k`` kernel offsets
    (relative to ``start_time``) of iterations ``P .. P+k-1`` in issue
    order."""

    prologue: Tuple[int, ...]
    offsets: Tuple[int, ...]


def _index(schedule: PipelinedSchedule) -> Dict[str, _IssueRow]:
    """Build the per-instruction index, rejecting any instruction whose
    prologue iterations are not exactly ``0 .. P-1`` or whose kernel
    does not hold exactly ``k`` entries with bases ``P .. P+k-1`` in
    issue order — the shape the k-periodic lookup relies on."""
    names = schedule.instructions
    prologue: Dict[str, List[Tuple[int, int]]] = {name: [] for name in names}
    kernel: Dict[str, List[Tuple[int, int]]] = {name: [] for name in names}
    try:
        for op in schedule.prologue:
            prologue[op.instruction].append((op.iteration, op.time))
        for rel, name, base in schedule.kernel:
            kernel[name].append((rel, base))
    except KeyError as exc:
        raise ScheduleError(
            f"schedule issues unknown instruction {exc.args[0]!r}"
        ) from None

    k = schedule.iterations_per_kernel
    rows: Dict[str, _IssueRow] = {}
    for name in names:
        issued = sorted(prologue[name])
        count = len(issued)
        iterations, times = zip(*issued) if issued else ((), ())
        if iterations != tuple(range(count)):
            raise ScheduleError(
                f"prologue iterations of {name!r} are {list(iterations)}, "
                f"not 0..{count - 1}"
            )
        entries = sorted(kernel[name])
        offsets, bases = zip(*entries) if entries else ((), ())
        if bases != tuple(range(count, count + k)):
            raise ScheduleError(
                f"kernel bases of {name!r} in issue order are "
                f"{list(bases)}, not the k = {k} iterations "
                f"{count}..{count + k - 1} that follow its prologue"
            )
        rows[name] = _IssueRow(times, offsets)
    return rows


@timed("core.derive_schedule")
def derive_schedule(
    frustum: CyclicFrustum,
    behavior: BehaviorGraph,
    instructions: Optional[Iterable[str]] = None,
) -> PipelinedSchedule:
    """Extract the static parallel schedule from a detected frustum.

    ``instructions`` restricts the schedule to a subset of transitions —
    used for SDSP-SCP-PN nets, whose dummy (pipeline-delay) transitions
    are wiring rather than instructions.  Iteration numbers are the
    cumulative firing counts observed in the behavior graph, so the j-th
    firing of an instruction anywhere in the trace is iteration j.
    """
    if instructions is None:
        keep: Set[str] = set(frustum.firing_counts)
        for _time, fired in behavior.firings():
            keep.update(fired)
    else:
        keep = set(instructions)

    counts_in_kernel = {
        name: frustum.firing_counts.get(name, 0) for name in keep
    }
    distinct = set(counts_in_kernel.values())
    if len(distinct) != 1:
        raise ScheduleError(
            "instructions fire unequal numbers of times per frustum "
            f"({sorted(distinct)}); restrict `instructions` to the loop body"
        )
    k = distinct.pop()
    if k == 0:
        raise ScheduleError("no instruction fires inside the frustum")

    cumulative: Dict[str, int] = {name: 0 for name in keep}
    prologue: List[ScheduledOp] = []
    kernel: List[Tuple[int, str, int]] = []
    for time, fired in behavior.firings():
        for name in fired:
            if name not in keep:
                continue
            iteration = cumulative[name]
            cumulative[name] = iteration + 1
            if time < frustum.start_time:
                prologue.append(ScheduledOp(time, name, iteration))
            elif time < frustum.repeat_time:
                kernel.append((time - frustum.start_time, name, iteration))

    return PipelinedSchedule(
        prologue=prologue,
        kernel=kernel,
        start_time=frustum.start_time,
        initiation_interval=frustum.length,
        iterations_per_kernel=k,
        instructions=tuple(sorted(keep)),
    )

