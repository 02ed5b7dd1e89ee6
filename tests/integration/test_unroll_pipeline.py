"""Rate-optimal unrolling through ``compile_loop``: auto selection,
exact-closure verification, and payload schema compatibility."""

import json
from fractions import Fraction

import pytest

from repro import compile_loop
from repro.errors import ReproError
from repro.obs import stable_json
from repro.pipeline import PAYLOAD_SCHEMA_VERSION, CompiledLoopSummary
from tests.conftest import L1_SOURCE, assert_view_matches_live

# two carried chains interleave: γ* = 2/3 (denominator > 1), but the
# one-buffer-per-arc base net only reaches 1/3
INTERLEAVE_SOURCE = """
do interleave:
    A[i] = C[i-1] + IN[i]
    B[i] = A[i-1] * 2
    C[i] = B[i] + 1
"""

# natively fractional γ = γ* = 2/5: closed at U = 1 by the 2-periodic
# base schedule (II = 5, two iterations per kernel)
FRAC5_SOURCE = """
do frac5:
    A[i] = E[i-1] + IN[i]
    B[i] = A[i] * 2
    C[i] = B[i-1] * 3
    D[i] = C[i] + 1
    E[i] = D[i] * 5
"""


class TestExplicitUnroll:
    def test_interleave_u2_closes_to_two_thirds(self):
        result = compile_loop(INTERLEAVE_SOURCE, include_io=False, unroll=2)
        assert result.unroll == 2
        assert result.achieved_rate == Fraction(2, 3)  # exact, not float
        assert result.dependence_bound == Fraction(2, 3)

    def test_u1_matches_the_base_pipeline(self):
        base = compile_loop(INTERLEAVE_SOURCE, include_io=False)
        assert base.unroll == 1
        assert base.achieved_rate == base.optimal_rate == Fraction(1, 3)

    def test_over_replication_may_exceed_the_bound(self):
        """Replication relaxes per-instruction non-reentrance, so an
        explicit factor can legally exceed γ* per base iteration —
        only ``auto`` targets exact equality."""
        result = compile_loop(L1_SOURCE, include_io=False, unroll=4)
        assert result.achieved_rate == 2
        assert result.dependence_bound == 1

    def test_unrolled_net_scales_with_the_factor(self):
        base = compile_loop(INTERLEAVE_SOURCE, include_io=False)
        unrolled = compile_loop(
            INTERLEAVE_SOURCE, include_io=False, unroll=3
        )
        assert unrolled.summary().n_transitions == (
            3 * base.summary().n_transitions
        )

    @pytest.mark.parametrize("bad", [0, -2, 65, 1.5, "two", True])
    def test_bad_factors_are_rejected_up_front(self, bad):
        with pytest.raises(ReproError):
            compile_loop(INTERLEAVE_SOURCE, include_io=False, unroll=bad)


class TestAutoUnroll:
    def test_interleave_auto_picks_two(self):
        result = compile_loop(
            INTERLEAVE_SOURCE, include_io=False, unroll="auto"
        )
        assert result.unroll == 2
        assert result.achieved_rate == result.dependence_bound == (
            Fraction(2, 3)
        )

    def test_frac5_auto_keeps_u1(self):
        result = compile_loop(FRAC5_SOURCE, include_io=False, unroll="auto")
        assert result.unroll == 1
        assert result.achieved_rate == result.dependence_bound == (
            Fraction(2, 5)
        )

    def test_doall_auto_picks_smallest_closing_factor(self):
        result = compile_loop(L1_SOURCE, include_io=False, unroll="auto")
        assert result.unroll == 2
        assert result.achieved_rate == result.dependence_bound == 1

    def test_auto_never_over_achieves(self):
        for source in (L1_SOURCE, INTERLEAVE_SOURCE, FRAC5_SOURCE):
            result = compile_loop(source, include_io=False, unroll="auto")
            assert result.achieved_rate == result.dependence_bound

    def test_search_stops_at_the_cap(self):
        """A bound no factor up to ``MAX_UNROLL`` reaches fails after the
        last candidate, naming the cap."""
        from repro.compiler.stages import select_unroll
        from repro.errors import AnalysisError
        from repro.loops import parse_loop, translate

        graph = translate(parse_loop(INTERLEAVE_SOURCE)).graph
        with pytest.raises(AnalysisError, match="no unroll factor up to 64"):
            select_unroll(graph, Fraction(3, 4), include_io=False)
        factor, unrolled = select_unroll(graph, Fraction(2, 3), include_io=False)
        assert factor == 2
        assert unrolled.graph.name == "interleavex2"


class TestPayloadSchema:
    def summary(self, **kwargs) -> CompiledLoopSummary:
        return compile_loop(
            INTERLEAVE_SOURCE, include_io=False, **kwargs
        ).summary()

    def test_payload_carries_the_unroll_fields(self):
        payload = self.summary(unroll="auto").payload()
        assert payload["payload_schema"] == PAYLOAD_SCHEMA_VERSION
        assert payload["unroll"] == 2
        assert payload["achieved_rate"] == "2/3"
        assert payload["dependence_bound"] == "2/3"

    def test_round_trip_is_byte_identical(self):
        compiled = compile_loop(INTERLEAVE_SOURCE, include_io=False, unroll=2)
        payload = compiled.summary().payload()
        rehydrated = CompiledLoopSummary.from_payload(
            json.loads(stable_json(payload))
        )
        assert stable_json(rehydrated.payload()) == stable_json(payload)
        assert_view_matches_live(rehydrated, compiled)

    def test_v1_payload_loads_with_defaults(self):
        """A ledger written before unrolling existed (no
        ``payload_schema`` key) must still load: U = 1, no recorded
        rates."""
        payload = self.summary().payload()
        for key in ("payload_schema", "unroll", "achieved_rate",
                    "dependence_bound"):
            payload.pop(key)
        summary = CompiledLoopSummary.from_payload(payload)
        assert summary.unroll == 1
        assert summary.achieved_rate is None
        assert summary.dependence_bound is None

    def test_newer_schema_is_rejected(self):
        payload = self.summary().payload()
        payload["payload_schema"] = PAYLOAD_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="newer than this reader"):
            CompiledLoopSummary.from_payload(payload)
