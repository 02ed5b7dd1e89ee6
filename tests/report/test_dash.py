"""The self-contained HTML dashboard (``repro dash``)."""

import xml.etree.ElementTree as ET
import re

import pytest

from repro.core import attribute_bottlenecks, derive_schedule, place_occupancy
from repro.obs import make_run_record
from repro.petrinet import detect_frustum
from repro.report import render_dash


@pytest.fixture
def l2_dash(l2_pn_abstract):
    frustum, behavior = detect_frustum(
        l2_pn_abstract.timed, l2_pn_abstract.initial
    )
    attribution = attribute_bottlenecks(l2_pn_abstract, frustum)
    schedule = derive_schedule(frustum, behavior)
    occupancy = place_occupancy(behavior, frustum)
    return l2_pn_abstract, attribution, schedule, occupancy


def render(l2_dash, history=()):
    pn, attribution, schedule, occupancy = l2_dash
    return render_dash(
        loop_name="L2",
        attribution=attribution,
        schedule=schedule,
        durations=pn.durations,
        occupancy=occupancy,
        history=history,
        git_sha="deadbeefcafe",
    )


class TestSelfContained:
    def test_single_document_no_external_assets(self, l2_dash):
        html = render(l2_dash)
        assert html.startswith("<!DOCTYPE html>")
        for needle in ("http://", "https://", "src=", "<script", "@import"):
            assert needle not in html
        assert "<style>" in html  # styles are inline

    def test_dark_mode_is_selected_not_flipped(self, l2_dash):
        html = render(l2_dash)
        assert "prefers-color-scheme: dark" in html
        # dark mode re-binds the series custom property to its own step
        assert "#3987e5" in html and "#2a78d6" in html


class TestBottleneckMarking:
    def test_zero_slack_rows_are_exactly_the_critical_set(self, l2_dash):
        _, attribution, _, _ = l2_dash
        html = render(l2_dash)
        assert html.count("0 (critical)") == len(
            attribution.critical_transitions
        )
        for name in attribution.critical_transitions:
            assert name in html

    def test_bottlenecks_carry_icon_and_label_not_just_color(self, l2_dash):
        html = render(l2_dash)
        assert "● on C*" in html  # status color never travels alone

    def test_noncritical_rows_state_their_slack(self, l2_dash):
        html = render(l2_dash)
        assert "+1 cycles" in html  # A and B can grow by one cycle


class TestCharts:
    def test_all_svgs_parse(self, l2_dash):
        html = render(l2_dash)
        svgs = re.findall(r"<svg.*?</svg>", html, re.S)
        assert len(svgs) >= 3  # gantt + sparklines at minimum
        for svg in svgs:
            ET.fromstring(svg)

    def test_gantt_rows_cover_every_instruction(self, l2_dash):
        pn, _, schedule, _ = l2_dash
        html = render(l2_dash)
        gantt = re.search(
            r'<svg[^>]*Steady-state kernel timeline.*?</svg>', html, re.S
        ).group(0)
        for name in pn.net.transition_names:
            assert name in gantt

    def test_marks_have_native_tooltips(self, l2_dash):
        html = render(l2_dash)
        assert "<title>" in html

    def test_occupancy_sparkline_per_place(self, l2_dash):
        import html as html_module

        _, _, _, occupancy = l2_dash
        document = render(l2_dash)
        for place in occupancy:
            assert html_module.escape(place) in document


class TestTrends:
    @staticmethod
    def history_record(sha, cycle, seconds):
        record = make_run_record(
            kind="cli",
            name="schedule:L2",
            payload={"loop": "L2", "cycle_time": cycle},
            phase_wall_clock={"petrinet.detect_frustum": {"total": seconds}},
        )
        record["git_sha"] = sha
        return record

    def test_too_little_history_shows_notice(self, l2_dash):
        html = render(l2_dash, history=[self.history_record("a" * 40, 3, 0.1)])
        assert "Not enough ledger history" in html

    def test_trend_charts_and_table_views(self, l2_dash):
        history = [
            self.history_record("a" * 40, 3, 0.10),
            self.history_record("b" * 40, 3, 0.12),
            self.history_record("c" * 40, 4, 0.11),
        ]
        html = render(l2_dash, history=history)
        assert "Cycle time across commits" in html
        assert "Frustum-detection cost across commits" in html
        # every chart has a table twin, labelled by short sha
        assert "table view" in html
        assert "aaaaaaa" in html

    def test_fraction_cycle_times_are_plotted(self, l2_dash):
        history = [
            self.history_record("a" * 40, "5/2", 0.1),
            self.history_record("b" * 40, "7/2", 0.1),
        ]
        html = render(l2_dash, history=history)
        assert "Cycle time across commits" in html


class TestStagesCard:
    def test_stage_rows_in_stage_order_then_remainder_and_total(
        self, l2_dash
    ):
        timers = {
            name: {"count": 1, "total": seconds}
            for name, seconds in (
                ("compile.total", 0.5),
                ("compile.unattributed", 0.01),
                ("core.optimal_rate", 0.2),
                ("stage.parse", 0.04),
                ("stage.rate", 0.3),
                ("stage.simulate", 0.15),
            )
        }
        record = make_run_record(
            kind="cli",
            name="schedule:L2",
            payload={"loop": "L2"},
            phase_wall_clock=timers,
        )
        html = render(l2_dash, history=[record])
        card = html[html.index("Compiler stages"):]
        order = [
            card.index(f">{name}<")
            for name in (
                "stage.parse", "stage.simulate", "stage.rate",
                "compile.unattributed", "compile.total",
            )
        ]
        assert order == sorted(order)
        # library timers run inside the stages and stay off this card
        assert ">core.optimal_rate<" not in card

    def test_no_card_without_stage_rows(self, l2_dash):
        record = make_run_record(
            kind="cli",
            name="schedule:L2",
            payload={"loop": "L2"},
            phase_wall_clock={"core.optimal_rate": {"total": 0.2}},
        )
        assert "Compiler stages" not in render(l2_dash, history=[record])


class TestSweepCard:
    @staticmethod
    def sweep_record(sha, lanes, critical, stages=None):
        return {
            "kind": "sweep",
            "name": "sweep",
            "git_sha": sha,
            "timing": {
                "spans": {
                    "n_items": sum(l["items"] for l in lanes.values()),
                    "lanes": lanes,
                    "critical_path": {"worker": critical},
                    "stages": stages or {},
                }
            },
        }

    def test_no_card_without_sweep_history(self, l2_dash):
        html = render(l2_dash)
        assert "Sweep lanes" not in html

    def test_latest_record_with_lanes_wins(self, l2_dash):
        pn, attribution, schedule, occupancy = l2_dash
        old = self.sweep_record(
            "a" * 40, {"worker-1": {"items": 2, "busy_seconds": 0.5}}, "worker-1"
        )
        new = self.sweep_record(
            "b" * 40,
            {
                "worker-1": {"items": 3, "busy_seconds": 0.9},
                "worker-2": {"items": 1, "busy_seconds": 0.2},
            },
            "worker-1",
            stages={
                "stage.parse": {
                    "count": 4,
                    "p50": 0.001,
                    "p95": 0.002,
                    "exact_percentiles": True,
                },
                "compile.total": {
                    "count": 4,
                    "p50": 0.1,
                    "p95": 0.2,
                    "exact_percentiles": False,
                },
            },
        )
        html = render_dash(
            loop_name="L2",
            attribution=attribution,
            schedule=schedule,
            durations=pn.durations,
            occupancy=occupancy,
            git_sha="deadbeefcafe",
            sweep_history=[old, new],
        )
        assert "Sweep lanes" in html
        assert "bbbbbbb" in html and "aaaaaaa" not in html
        # critical lane marked, both lanes listed
        assert "worker-1 ●" in html and "worker-2" in html
        # inexact percentiles carry the ~ marker, exact ones don't
        assert "~0.100000" in html
        assert "~0.001000" not in html and "0.001000" in html


class TestCausalityCard:
    @staticmethod
    def blame_record(sha, schema_version=1, observed=True):
        blame = {
            "schema_version": schema_version,
            "model": "SDSP-PN",
            "alpha": "3",
            "horizon": 15,
            "observed_cycle": (
                {
                    "transitions": ["C", "D", "E"],
                    "places": ["d[C.0->D.1]", "d[D.0->E.1]", "d[E.0->C.1]"],
                    "kinds": ["data", "data", "feedback"],
                    "span": 3,
                    "iterations": 1,
                    "cycle_time": "3",
                }
                if observed
                else None
            ),
            "observed_match": observed,
            "matches_howard": observed,
            "wait_states": {
                "C": {
                    "firings": 4,
                    "executing": 4,
                    "idle": 1,
                    "waits": {
                        "data": 2,
                        "feedback": 6,
                        "ack": 2,
                        "resource": 0,
                        "self": 0,
                    },
                    "percentiles": {},
                }
            },
        }
        return {
            "kind": "cli",
            "name": "explain:L2",
            "git_sha": sha,
            "payload": {"loop": "L2"},
            "timing": {"blame": blame},
        }

    def test_no_card_without_blame_history(self, l2_dash):
        html = render(l2_dash)
        assert "Causality" not in html

    def test_card_renders_path_waterfall_and_table_twin(self, l2_dash):
        html = render(l2_dash, history=[self.blame_record("c" * 40)])
        assert "Causality — observed critical path" in html
        assert "C → D → E" in html
        assert "matches the Howard witness C*" in html
        assert "Wait-state waterfall per transition" in html
        # chart has a table twin and native tooltips
        assert "table view — wait states" in html
        assert "feedback wait 6 / 15 cycles" in html

    def test_schema_mismatch_degrades_to_placeholder(self, l2_dash):
        html = render(
            l2_dash, history=[self.blame_record("d" * 40, schema_version=99)]
        )
        assert "schema version 99" in html
        assert "re-run <code>repro explain" in html
        assert "Wait-state waterfall" not in html

    def test_transient_walk_gets_a_hint_instead_of_a_chart_lie(self, l2_dash):
        html = render(
            l2_dash, history=[self.blame_record("e" * 40, observed=False)]
        )
        assert "drained into the transient" in html

    def test_latest_blame_record_wins(self, l2_dash):
        old = self.blame_record("a" * 40, schema_version=99)
        new = self.blame_record("b" * 40)
        html = render(l2_dash, history=[old, new])
        assert "C → D → E" in html
        assert "schema version 99" not in html
