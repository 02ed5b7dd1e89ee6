"""Storage minimisation (Section 6, Figure 4)."""

from fractions import Fraction

import pytest

from repro.core import (
    StorageAllocation,
    apply_allocation,
    balancing_ratios,
    build_sdsp_pn,
    optimize_storage,
    verify_allocation,
)
from repro.errors import AnalysisError
from repro.loops import KERNELS
from repro.petrinet import (
    MarkedGraphView,
    cycle_time_by_enumeration,
    detect_frustum,
    howard_analysis,
)


class TestBalancingRatios:
    def test_l2_critical_ratio_is_one_third(self, l2_pn_abstract):
        ratios = balancing_ratios(l2_pn_abstract)
        assert min(r for _, r in ratios) == Fraction(1, 3)

    def test_l2_pair_cycles_have_ratio_half(self, l2_pn_abstract):
        ratios = dict(balancing_ratios(l2_pn_abstract))
        pair_ratios = [r for cycle, r in ratios.items() if len(cycle) == 2]
        assert all(r == Fraction(1, 2) for r in pair_ratios)

    def test_min_ratio_is_computation_rate(self, l2_pn_abstract):
        from repro.core import optimal_rate

        ratios = balancing_ratios(l2_pn_abstract)
        assert min(r for _, r in ratios) == optimal_rate(l2_pn_abstract)


class TestOptimizeStorage:
    def test_l2_saves_at_least_paper_sixth(self, l2_pn_abstract):
        """Figure 4 saves 1/6 by merging one pair; the greedy merges
        every legal pair, saving at least that."""
        allocation = optimize_storage(l2_pn_abstract)
        assert allocation.baseline_locations == 6
        assert allocation.savings >= Fraction(1, 6)

    def test_l2_merged_chain_matches_figure4(self, l2_pn_abstract):
        allocation = optimize_storage(l2_pn_abstract)
        chains = {
            tuple([c.head] + [a.target for a in c.arcs])
            for c in allocation.chains
        }
        assert ("A", "B", "D") in chains  # the ABDA merge of Figure 4

    def test_doall_loop_cannot_merge(self, l1_pn_abstract):
        """alpha = 2 caps chains at one arc: zero savings (the ack
        discipline is already minimal for rate 1/2)."""
        allocation = optimize_storage(l1_pn_abstract)
        assert allocation.savings == 0
        assert all(c.length == 1 for c in allocation.chains)

    def test_explicit_cap_respected(self, l2_pn_abstract):
        allocation = optimize_storage(l2_pn_abstract, max_chain_length=1)
        assert allocation.savings == 0

    def test_bad_cap_rejected(self, l2_pn_abstract):
        with pytest.raises(AnalysisError, match="at least 1"):
            optimize_storage(l2_pn_abstract, max_chain_length=0)

    def test_feedback_arcs_keep_own_location(self, l2_pn_abstract):
        allocation = optimize_storage(l2_pn_abstract)
        assert len(allocation.feedback_arcs) == 1


class TestApplyAndVerify:
    def test_rate_preserved(self, l2_pn_abstract):
        allocation = optimize_storage(l2_pn_abstract)
        assert verify_allocation(l2_pn_abstract, allocation) == 3

    def test_optimised_net_live_safe(self, l2_pn_abstract):
        allocation = optimize_storage(l2_pn_abstract)
        net, marking = apply_allocation(l2_pn_abstract, allocation)
        view = MarkedGraphView(net, marking)
        assert view.is_live()
        assert view.is_safe()

    def test_optimised_net_place_count_drops(self, l2_pn_abstract):
        allocation = optimize_storage(l2_pn_abstract)
        net, _ = apply_allocation(l2_pn_abstract, allocation)
        assert len(net.place_names) < len(l2_pn_abstract.net.place_names)

    def test_optimised_net_reaches_same_rate_in_simulation(self, l2_pn_abstract):
        from repro.petrinet import TimedPetriNet

        allocation = optimize_storage(l2_pn_abstract)
        net, marking = apply_allocation(l2_pn_abstract, allocation)
        frustum, _ = detect_frustum(
            TimedPetriNet(net, l2_pn_abstract.durations), marking
        )
        assert frustum.uniform_rate() == Fraction(1, 3)

    def test_overlong_chain_detected_by_verifier(self, l2_pn_abstract):
        """Force a chain longer than the cap: the verifier must reject
        it because the induced cycle would lower the rate."""
        allocation = optimize_storage(l2_pn_abstract, max_chain_length=4)
        if any(c.length > 2 for c in allocation.chains):
            with pytest.raises(AnalysisError, match="cycle time"):
                verify_allocation(l2_pn_abstract, allocation)
        else:
            # greedy may not have found a longer chain; nothing to test
            verify_allocation(l2_pn_abstract, allocation)

    def test_dead_allocation_names_the_witness_cycle(self, l2_pn_abstract):
        """An allocation that keeps a forward arc's buffer full (token 0
        on its acknowledgement, as for a feedback arc) deadlocks; the
        verifier and Howard name the same token-free cycle."""
        allocation = optimize_storage(l2_pn_abstract, max_chain_length=1)
        dead = allocation.chains[0].arcs[0]
        allocation = StorageAllocation(
            chains=allocation.chains[1:],
            feedback_arcs=allocation.feedback_arcs + [dead],
            baseline_locations=allocation.baseline_locations,
        )
        net, marking = apply_allocation(l2_pn_abstract, allocation)
        witness = MarkedGraphView(net, marking).token_free_cycle()
        assert set(witness.transitions) == {dead.source, dead.target}
        named = " -> ".join(witness.transitions)
        with pytest.raises(
            AnalysisError, match=f"deadlocks: token-free cycle through {named}$"
        ):
            verify_allocation(l2_pn_abstract, allocation)
        with pytest.raises(
            AnalysisError, match=f"^cycle through {named} carries no token"
        ):
            howard_analysis(MarkedGraphView(net, marking), l2_pn_abstract.durations)

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_all_kernels_verify(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        allocation = optimize_storage(pn)
        verify_allocation(pn, allocation)
        assert allocation.locations <= allocation.baseline_locations
