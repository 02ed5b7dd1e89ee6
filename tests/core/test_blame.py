"""Causal blame engine: observed critical paths converge to the
structural ``α``, wait states tile the horizon, and the ledger summary
is schema-versioned.

The figure goldens mirror the paper: L1 (Figure 1, all cycles critical
at α = 2), L2 (Figure 2, the loop-carried cycle C → D → E pins α = 3
and is the unique Howard witness), and the l-stage SCP machine whose
run place surfaces as resource waits.
"""

from fractions import Fraction

import pytest

from repro.core import blame_summary, explain_compiled
from repro.core.blame import BLAME_SCHEMA_VERSION, classifier_for
from repro.obs.causality import (
    EDGE_ACK,
    EDGE_FEEDBACK,
    EDGE_RESOURCE,
)
from repro.pipeline import compile_loop
from tests.conftest import L1_SOURCE, L2_SOURCE


@pytest.fixture(scope="module")
def l1_report():
    return explain_compiled(compile_loop(L1_SOURCE, include_io=False))


@pytest.fixture(scope="module")
def l2_report():
    return explain_compiled(compile_loop(L2_SOURCE, include_io=False))


@pytest.fixture(scope="module")
def scp_report():
    return explain_compiled(
        compile_loop(L1_SOURCE, include_io=False, pipeline_stages=8)
    )


class TestFig1:
    def test_observed_path_is_structurally_critical(self, l1_report):
        assert l1_report.alpha == 2
        observed = l1_report.observed
        assert observed is not None
        assert observed.cycle_time == Fraction(2)
        # On L1 every data/ack cycle is critical (unit durations), so
        # the observed path need not equal the Howard witness — but it
        # must be in the enumerated critical set.
        assert l1_report.observed_match
        assert observed.transitions in l1_report.critical_cycles

    def test_per_iteration_length_converges_to_alpha(self, l1_report):
        tail = l1_report.convergence()
        assert tail, "needs at least one full window of firings"
        # transient windows may differ; the steady-state tail must not
        assert tail[-1] == l1_report.alpha
        assert all(value == l1_report.alpha for value in tail[-3:])

    def test_wait_states_tile_horizon(self, l1_report):
        assert l1_report.wait
        for profile in l1_report.wait.values():
            assert profile.total == l1_report.horizon

    def test_blame_chain_is_tight_in_steady_state(self, l1_report):
        assert l1_report.chain
        # every hop of the chain is a binding (last-arriving) edge; at
        # the steady-state end of the run they are all slack-free
        assert l1_report.chain[0].slack == 0


class TestFig2:
    def test_observed_path_is_the_howard_witness(self, l2_report):
        assert l2_report.alpha == 3
        observed = l2_report.observed
        assert observed is not None
        assert observed.transitions == ("C", "D", "E")
        assert observed.cycle_time == Fraction(3)
        assert l2_report.observed_match
        assert l2_report.matches_howard

    def test_loop_carried_edge_is_classified_feedback(self, l2_report):
        assert EDGE_FEEDBACK in l2_report.observed.kinds

    def test_convergence(self, l2_report):
        tail = l2_report.convergence()
        assert tail and tail[-1] == Fraction(3)

    def test_explain_runs_howard_once_on_the_sdsp_pn(
        self, monkeypatch, tmp_path
    ):
        """The compile's rate, the ``critical_cycles`` cross-check and
        the witness all read one Howard run per net, and the dependence
        bound reads the edge table: no ack-free net is built."""
        import io
        from collections import Counter

        from repro.cli import main
        from repro.petrinet import howard
        from repro.petrinet.net import PetriNet

        analysed = []
        run = howard.howard_analysis

        def spy(view, durations):
            analysed.append(view.net)
            return run(view, durations)

        built = []
        init = PetriNet.__init__

        def record(net, *args, **kwargs):
            init(net, *args, **kwargs)
            built.append(net)

        monkeypatch.setattr(howard, "howard_analysis", spy)
        monkeypatch.setattr(PetriNet, "__init__", record)
        loop = tmp_path / "l2.loop"
        loop.write_text(L2_SOURCE)
        out = io.StringIO()
        assert main(["explain", str(loop), "--abstract"], out=out) == 0
        assert "matches the Howard witness" in out.getvalue()
        # one net analysed, once: the SDSP-PN, with its ack places
        assert list(Counter(id(net) for net in analysed).values()) == [1]
        assert any(place.startswith("a[") for place in analysed[0].place_names)
        # and no net with data places but no ack place was built
        assert built
        for net in built:
            places = net.place_names
            if any(place.startswith("d[") for place in places):
                assert any(place.startswith("a[") for place in places)


class TestFig3Scp:
    def test_resource_bound_and_waits(self, scp_report):
        assert scp_report.model.startswith("SDSP-SCP-PN")
        assert scp_report.scp_bound == Fraction(1, 5)
        resource_waits = sum(
            profile.waits[EDGE_RESOURCE]
            for profile in scp_report.wait.values()
        )
        assert resource_waits > 0

    def test_wait_states_tile_horizon(self, scp_report):
        for profile in scp_report.wait.values():
            assert profile.total == scp_report.horizon

    def test_observed_spacing_matches_the_run(self, scp_report):
        """The observed per-iteration path length is the achieved
        initiation interval: anchor firings are spaced exactly one
        cycle traversal apart in steady state."""
        observed = scp_report.observed
        assert observed is not None
        anchor = observed.transitions[0]
        nodes = scp_report.dag.by_transition[anchor]
        assert len(nodes) >= 3
        spacing = nodes[-1].start - nodes[-2].start
        assert Fraction(spacing, 1) == observed.cycle_time


class TestClassifier:
    def test_net_aware_classification(self):
        result = compile_loop(L2_SOURCE, include_io=False)
        classify = classifier_for(result.pn.net, result.pn.initial)
        carried = [
            place
            for place in result.pn.net.place_names
            if place.startswith("d[") and result.pn.initial[place] > 0
        ]
        assert carried, "L2 has a loop-carried (initially marked) place"
        for place in carried:
            assert classify(place) == EDGE_FEEDBACK
        acks = [
            p for p in result.pn.net.place_names if p.startswith("a[")
        ]
        assert acks and all(classify(p) == EDGE_ACK for p in acks)


class TestSummary:
    def test_blame_summary_shape_and_ledger_roundtrip(self, l2_report):
        from repro.obs.ledger import make_run_record

        summary = blame_summary(l2_report)
        assert summary["schema_version"] == BLAME_SCHEMA_VERSION
        assert summary["observed_cycle"]["transitions"] == ["C", "D", "E"]
        assert summary["matches_howard"] is True
        assert set(summary["wait_states"]) == set(l2_report.wait)

        record = make_run_record(
            kind="cli",
            name="explain:L2",
            payload={"loop": "L2"},
            blame=summary,
        )
        assert record["timing"]["blame"]["schema_version"] == (
            BLAME_SCHEMA_VERSION
        )

    def test_json_payload_is_stable_json_safe(self, l1_report):
        from repro.obs import stable_json
        import json

        text = stable_json(l1_report.to_payload(), indent=2)
        parsed = json.loads(text)
        assert parsed["schema_version"] == BLAME_SCHEMA_VERSION
        assert parsed["observed_match"] is True

    def test_engines_agree_on_the_verdict(self):
        step = explain_compiled(
            compile_loop(L2_SOURCE, include_io=False, engine="step")
        )
        event = explain_compiled(
            compile_loop(L2_SOURCE, include_io=False, engine="event")
        )
        assert step.observed.transitions == event.observed.transitions
        assert step.observed.cycle_time == event.observed.cycle_time
        assert {
            name: profile.to_payload()
            for name, profile in step.wait.items()
        } == {
            name: profile.to_payload()
            for name, profile in event.wait.items()
        }
