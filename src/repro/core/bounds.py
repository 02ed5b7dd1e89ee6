"""Polynomial bounds on frustum appearance (Section 4) and the
empirical O(n) observation (Section 5).

Theory (unit execution times, ``n`` transitions):

* **Single critical cycle** (Theorems 4.1.1/4.1.2): every transition
  enters its periodic pattern within ``O(n³)`` iterations, i.e. the
  frustum appears within ``O(n⁴)`` time steps.
* **Multiple critical cycles** (Theorems 4.2.1/4.2.2): transitions *on*
  critical cycles enter the pattern within ``O(n²)`` iterations /
  ``O(n³)`` steps; for off-cycle transitions no polynomial bound is
  known (the paper leaves the problem open).

Which case applies only needs the number of critical cycles, and that
is counted in Howard's critical graph (the edges tight under the
converged potentials, :mod:`repro.petrinet.howard`), not by enumerating
every simple cycle of the net: for a loop-carried or unrolled body the
critical graph is one or a few cycles.  For a DOALL body it is the
whole net, so counting stops past :data:`CRITICAL_CYCLE_BUDGET`.

Practice (Section 5): on the Livermore loops the repeated instantaneous
state is found within ``2n`` time steps; the ``BD`` column of
Tables 1/2 is "a tight bound derived by observation ... intended only
for comparison purposes".  We adopt ``BD = 2n`` for the SDSP-PN and
``BD = 2·l·depth + 4n`` for the SDSP-SCP-PN, where ``depth`` is the
loop body's critical-path length (the pipeline fill transient) — see
EXPERIMENTS.md for the calibration against the measured detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from ..obs.metrics import timed
from ..petrinet.behavior import CyclicFrustum, detect_frustum
from ..petrinet.howard import HowardResult
from ..petrinet.simulator import ConflictResolutionPolicy
from .scp import SdspScpNet
from .sdsp_pn import SdspPetriNet

__all__ = [
    "CRITICAL_CYCLE_BUDGET",
    "TheoreticalBounds",
    "count_critical_cycles",
    "theoretical_bounds",
    "observed_bound_sdsp",
    "observed_bound_scp",
    "DetectionMeasurement",
    "measure_detection",
]


#: Counting critical cycles stops past this many, which bounds the
#: count's work at this many cycles of Johnson's search over the
#: critical graph.  Every count the examples and the Livermore kernels
#: reach up to ``MAX_UNROLL`` is below it: the largest are DOALL bodies,
#: where the critical graph is the whole net (L1 in A-code at U = 64
#: has 1,024 critical cycles, loop9 in A-code 1,728).
CRITICAL_CYCLE_BUDGET = 4096


@dataclass(frozen=True)
class TheoreticalBounds:
    """The paper's worst-case guarantees for one net.

    ``covers_all_transitions`` is False in the multiple-critical-cycle
    case, where the bound only covers transitions on critical cycles.
    ``critical_cycle_count_capped`` is True when the net has more than
    :data:`CRITICAL_CYCLE_BUDGET` critical cycles; the count then reads
    the budget.
    """

    n: int
    critical_cycle_count: int
    iteration_bound: int
    step_bound: int
    covers_all_transitions: bool
    critical_cycle_count_capped: bool = False

    @property
    def case(self) -> str:
        return "single" if self.critical_cycle_count <= 1 else "multiple"


def count_critical_cycles(howard: HowardResult) -> Tuple[int, bool]:
    """The number of critical cycles, counting critical implicit
    self-loops, as ``(count, capped)``.

    It walks the critical graph (the tight edges of ``howard``) as the
    listing of :func:`~repro.core.rate.critical_cycles` does
    (:meth:`~repro.petrinet.howard.HowardResult.critical_node_cycles`),
    counting a node cycle once per choice of tight place on each hop.
    Past :data:`CRITICAL_CYCLE_BUDGET` cycles the search stops and the
    budget is returned with ``capped`` True.
    """
    count = 0
    for _, places in howard.critical_node_cycles():
        if count > CRITICAL_CYCLE_BUDGET:
            break
        choices = 1
        for options in places:
            choices *= len(options)
        count += choices
    if count > CRITICAL_CYCLE_BUDGET:
        return CRITICAL_CYCLE_BUDGET, True
    return count, False


@timed("core.theoretical_bounds")
def theoretical_bounds(pn: SdspPetriNet) -> TheoreticalBounds:
    """Classify the net (single vs multiple critical cycles, counting
    critical self-loops) and instantiate the matching bound.

    The count reads the net's Howard result (run by
    :func:`~repro.core.rate.optimal_rate` on the compile path) and
    searches only its critical graph (:func:`count_critical_cycles`),
    so no compile enumerates the cycles of the whole net."""
    count, capped = count_critical_cycles(pn.howard)
    n = pn.size
    single = count <= 1
    return TheoreticalBounds(
        n=n,
        critical_cycle_count=count,
        iteration_bound=n**3 if single else n**2,
        step_bound=n**4 if single else n**3,
        covers_all_transitions=single,
        critical_cycle_count_capped=capped,
    )


def observed_bound_sdsp(n: int) -> int:
    """``BD`` for Table 1: in every paper example "the repeated
    instantaneous state is found within 2n time steps"."""
    return 2 * n


def observed_bound_scp(n: int, stages: int, depth: int) -> int:
    """``BD`` for Table 2 (our calibration, see module docstring).

    The transient before the steady state includes filling the pipeline
    along the loop body's critical path — each of the ``depth`` levels
    waits a full ``2·stages`` data + acknowledgement round trip — plus
    the issue serialisation of the ``n`` instructions; the repeat adds
    one more period.  ``2·stages·depth + 4·n`` upper-bounds every
    Livermore measurement (checked by the test suite and EXPERIMENTS.md).
    """
    return 2 * stages * depth + 4 * n


@dataclass(frozen=True)
class DetectionMeasurement:
    """One empirical detection run, ready for the scaling study.

    ``steps_per_n`` near a small constant across a loop family is the
    paper's O(n) observation.
    """

    n: int
    start_time: int
    repeat_time: int
    frustum_length: int
    step_bound_theory: int
    observed_bound: int

    @property
    def steps_per_n(self) -> Fraction:
        return Fraction(self.repeat_time, max(1, self.n))

    @property
    def within_observed_bound(self) -> bool:
        return self.repeat_time <= self.observed_bound


def measure_detection(
    pn: SdspPetriNet,
    policy: Optional[ConflictResolutionPolicy] = None,
    scp: Optional[SdspScpNet] = None,
) -> Tuple[DetectionMeasurement, CyclicFrustum]:
    """Detect the frustum and package the detection-time statistics.

    Pass ``scp`` (with its policy) to measure the resource-constrained
    model instead of the ideal one; ``pn`` is still used for ``n`` and
    the theory bound.
    """
    if scp is not None:
        frustum, _behavior = detect_frustum(scp.timed, scp.initial, policy)
        depth = scp.base.sdsp.max_concurrent_iterations
        observed = observed_bound_scp(scp.size, scp.stages, depth)
        n = scp.size
    else:
        frustum, _behavior = detect_frustum(pn.timed, pn.initial, policy)
        observed = observed_bound_sdsp(pn.size)
        n = pn.size
    theory = theoretical_bounds(pn)
    measurement = DetectionMeasurement(
        n=n,
        start_time=frustum.start_time,
        repeat_time=frustum.repeat_time,
        frustum_length=frustum.length,
        step_bound_theory=theory.step_bound,
        observed_bound=observed,
    )
    return measurement, frustum
