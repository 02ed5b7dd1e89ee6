"""SDSP-SCP-PN: folding a single clean pipeline into the net
(Section 5.2, Figure 3).

The machine model is a *single clean execution pipeline* (SCP) of ``l``
stages: one instruction may be issued per cycle, and once issued it
traverses the pipeline without structural hazards, its result emerging
``l`` cycles later.  The paper integrates this resource constraint into
the SDSP-PN in two steps:

* **Series expansion** — every place of the SDSP-PN is split in two
  with a *dummy transition* of execution time ``l − 1`` between the
  halves, while every SDSP transition's execution time becomes 1 (the
  issue slot).  A value thus becomes available to its consumer ``l``
  cycles after issue, exactly the pipeline latency.  With ``l = 1`` no
  dummy transitions are created.
* **Run-place introduction** — a place ``p_run`` holding one token is
  made an input *and* output of every SDSP transition.  Enabled
  instructions compete for it, so at most one issues per cycle; dummy
  transitions bypass it (they are wiring, not instructions).

The run place is a structural conflict, so the net is no longer a
marked graph and the earliest firing rule needs a deterministic choice
mechanism — Assumption 5.2.1; see
:class:`repro.machine.policies.FifoRunPlacePolicy` for the FIFO +
adjacency-list scheme the paper simulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import NetConstructionError
from ..petrinet.marking import Marking
from ..petrinet.net import PetriNet, PlaceRow
from ..petrinet.timed import TimedPetriNet
from .sdsp_pn import SdspPetriNet

__all__ = ["SdspScpNet", "build_sdsp_scp_pn", "RUN_PLACE"]

RUN_PLACE = "p_run"


@dataclass
class SdspScpNet:
    """The unified precedence + resource model.

    ``sdsp_transitions`` are the instruction transitions (execution
    time 1); ``dummy_transitions`` the series-expansion delays
    (execution time ``stages − 1``).  ``base`` links back to the
    unconstrained SDSP-PN the net was derived from.
    """

    base: SdspPetriNet
    net: PetriNet
    initial: Marking
    durations: Dict[str, int]
    stages: int
    sdsp_transitions: Tuple[str, ...]
    dummy_transitions: Tuple[str, ...]
    run_place: str = RUN_PLACE

    @property
    def timed(self) -> TimedPetriNet:
        return TimedPetriNet(self.net, self.durations)

    @property
    def size(self) -> int:
        """``n`` — SDSP (instruction) transitions only."""
        return len(self.sdsp_transitions)

    def priority_order(self) -> Tuple[str, ...]:
        """The adjacency-list tie-breaking order of Assumption 5.2.1 —
        instruction transitions in their construction order, which for
        graphs built by the loop frontend is the program order of the
        loop body."""
        return self.sdsp_transitions


def build_sdsp_scp_pn(
    base: SdspPetriNet,
    stages: int,
    expand_ack_places: bool = True,
) -> SdspScpNet:
    """Construct the SDSP-SCP-PN from an SDSP-PN.

    Parameters
    ----------
    stages:
        Pipeline depth ``l >= 1``.  The paper's Table 2 uses ``l = 8``.
    expand_ack_places:
        The paper performs series expansion "for each place in the
        SDSP-PN", i.e. acknowledgement places too — acknowledgement
        signals travel through the pipeline like data.  Disabling this
        models a machine with a dedicated zero-latency acknowledgement
        network, an ablation studied in the benchmarks.
    """
    if stages < 1:
        raise NetConstructionError(f"pipeline needs >= 1 stage, got {stages}")

    source_net = base.net
    instructions = source_net.transition_names
    rows: List[PlaceRow] = []
    tokens: Dict[str, int] = {}
    durations: Dict[str, int] = dict.fromkeys(instructions, 1)
    dummies: List[str] = []

    for place, producer, consumer, initial_tokens in base.edges:
        annotation = source_net.annotation(place)
        if stages == 1 or (not expand_ack_places and annotation == "ack"):
            rows.append((place, annotation, (producer,), (consumer,)))
            if initial_tokens:
                tokens[place] = initial_tokens
            continue
        # producer -> place (the head) -> dummy -> tail -> consumer
        dummy = f"delay[{place}]"
        tail = f"{place}~ready"
        rows.append((place, annotation, (producer,), (dummy,)))
        rows.append((tail, annotation, (dummy,), (consumer,)))
        durations[dummy] = stages - 1
        dummies.append(dummy)
        if initial_tokens:
            # Initial tokens represent values already available (loop
            # pre-state / free buffers): they sit past the delay.
            tokens[tail] = initial_tokens

    # Run place: one issue slot shared by all instruction transitions.
    rows.append((RUN_PLACE, "run", instructions, instructions))
    tokens[RUN_PLACE] = 1
    net = PetriNet.from_rows(
        f"{source_net.name}-scp{stages}",
        chain(
            ((t, "sdsp") for t in instructions),
            ((dummy, "dummy") for dummy in dummies),
        ),
        rows,
    )

    return SdspScpNet(
        base=base,
        net=net,
        initial=Marking(tokens, net),
        durations=durations,
        stages=stages,
        sdsp_transitions=instructions,
        dummy_transitions=tuple(dummies),
    )
