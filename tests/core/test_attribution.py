"""Bottleneck attribution: slack, utilization and place occupancy."""

from fractions import Fraction

import pytest

from repro.core import (
    attribute_bottlenecks,
    critical_cycles,
    place_occupancy,
)
from repro.errors import AnalysisError
from repro.petrinet import detect_frustum


@pytest.fixture
def l2_attribution(l2_pn_abstract):
    frustum, behavior = detect_frustum(
        l2_pn_abstract.timed, l2_pn_abstract.initial
    )
    return (
        l2_pn_abstract,
        frustum,
        behavior,
        attribute_bottlenecks(l2_pn_abstract, frustum),
    )


class TestSlack:
    def test_zero_slack_is_exactly_the_critical_set(self, l2_attribution):
        pn, _, _, report = l2_attribution
        expected = critical_cycles(pn).transitions_on_critical_cycles
        assert set(report.bottlenecks()) == set(expected)
        for entry in report.transitions:
            assert entry.is_bottleneck == (entry.transition in expected)
            assert entry.on_critical_cycle == (entry.transition in expected)

    def test_l2_feedback_cycle_is_the_bottleneck(self, l2_attribution):
        _, _, _, report = l2_attribution
        assert sorted(report.bottlenecks()) == ["C", "D", "E"]
        assert report.cycle_time == 3

    def test_off_critical_slack_is_the_cycle_margin(self, l2_attribution):
        # A and B sit on data/ack pair cycles of ratio 2/1 against
        # alpha = 3, so each could grow by exactly one cycle.
        _, _, _, report = l2_attribution
        assert report.by_name("A").slack == 1
        assert report.by_name("B").slack == 1

    def test_binding_cycle_contains_the_transition(self, l2_attribution):
        _, _, _, report = l2_attribution
        for entry in report.transitions:
            assert entry.transition in entry.binding_cycle

    def test_rows_sorted_bottlenecks_first(self, l2_attribution):
        _, _, _, report = l2_attribution
        slacks = [entry.slack for entry in report.transitions]
        assert slacks == sorted(slacks)

    def test_all_critical_when_every_pair_binds(self, l1_pn_abstract):
        # L1 is a DOALL: every data/ack pair cycle hits alpha = 2, so
        # every transition is on a critical cycle and has zero slack.
        frustum, _ = detect_frustum(
            l1_pn_abstract.timed, l1_pn_abstract.initial
        )
        report = attribute_bottlenecks(l1_pn_abstract, frustum)
        assert set(report.bottlenecks()) == set(
            l1_pn_abstract.net.transition_names
        )


class TestUtilization:
    def test_utilization_is_firing_time_over_period(self, l2_attribution):
        pn, frustum, _, report = l2_attribution
        for entry in report.transitions:
            expected = Fraction(
                frustum.firing_counts.get(entry.transition, 0)
                * pn.durations[entry.transition],
                frustum.length,
            )
            assert entry.utilization == expected

    def test_utilization_bounded_by_one(self, l2_attribution):
        _, _, _, report = l2_attribution
        for entry in report.transitions:
            assert 0 <= entry.utilization <= 1

    def test_unknown_transition_raises(self, l2_attribution):
        _, _, _, report = l2_attribution
        with pytest.raises(AnalysisError):
            report.by_name("nope")


class TestPlaceOccupancy:
    def test_series_cover_the_frustum_window(self, l2_pn_abstract):
        frustum, behavior = detect_frustum(
            l2_pn_abstract.timed, l2_pn_abstract.initial
        )
        occupancy = place_occupancy(behavior, frustum)
        steps = [
            s
            for s in behavior.steps
            if frustum.start_time <= s.time < frustum.repeat_time
        ]
        for series in occupancy.values():
            assert len(series) == len(steps)
            assert all(value >= 0 for value in series)

    def test_restricting_places_preserves_order(self, l2_pn_abstract):
        frustum, behavior = detect_frustum(
            l2_pn_abstract.timed, l2_pn_abstract.initial
        )
        everything = place_occupancy(behavior, frustum)
        some = sorted(everything)[:2]
        subset = place_occupancy(behavior, frustum, places=some)
        assert list(subset) == some
        for place in some:
            assert subset[place] == everything[place]
