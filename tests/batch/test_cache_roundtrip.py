"""Cache round-trip properties: for random SDSPs and the paper's
Fig. 1/Fig. 2 loops, cached compilation is indistinguishable — byte for
byte — from fresh compilation, under any worker count and cache state;
corrupt entries are detected and silently recompiled, never trusted."""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.batch import PAYLOAD_STAGE, CompileCache, SweepItem, compile_many
from repro.obs import stable_json
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import CompiledLoopSummary, compile_loop
from tests.conftest import L1_SOURCE, L2_SOURCE, assert_view_matches_live
from tests.integration.test_property_based import loop_sources

COMMON = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PAPER_ITEMS = [
    SweepItem(name="fig1-l1", source=L1_SOURCE, include_io=False),
    SweepItem(name="fig2-l2", source=L2_SOURCE, include_io=False),
    SweepItem(
        name="fig3-l2-scp",
        source=L2_SOURCE,
        include_io=False,
        pipeline_stages=2,
    ),
]


class TestSummaryRoundTrip:
    """The payload survives real JSON, and its parsed view agrees with
    the live objects of the compile that merged it."""

    @given(source=loop_sources())
    @settings(**COMMON)
    def test_random_loops_round_trip_byte_identically(self, source):
        compiled = compile_loop(source, include_io=False)
        payload = compiled.summary().payload()
        rehydrated = CompiledLoopSummary.from_payload(
            json.loads(stable_json(payload))  # through real JSON
        )
        assert stable_json(rehydrated.payload()) == stable_json(payload)
        assert_view_matches_live(rehydrated, compiled)

    @pytest.mark.parametrize("item", PAPER_ITEMS, ids=lambda i: i.name)
    def test_paper_loops_round_trip(self, item):
        compiled = compile_loop(
            item.source,
            pipeline_stages=item.pipeline_stages,
            include_io=item.include_io,
        )
        payload = compiled.summary().payload()
        rehydrated = CompiledLoopSummary.from_payload(
            json.loads(stable_json(payload))
        )
        assert stable_json(rehydrated.payload()) == stable_json(payload)
        assert_view_matches_live(rehydrated, compiled)


class TestSweepEquivalence:
    """compile_many cold vs warm and 1 vs N workers: one truth."""

    def merged(self, items, **kwargs):
        return stable_json(compile_many(items, **kwargs).merged_payload())

    def test_paper_items_all_configurations_agree(self, tmp_path):
        reference = self.merged(PAPER_ITEMS)  # no cache, serial
        cold = self.merged(PAPER_ITEMS, cache_dir=tmp_path)
        warm = self.merged(PAPER_ITEMS, cache_dir=tmp_path)
        parallel = self.merged(PAPER_ITEMS, workers=3)
        warm_parallel = self.merged(
            PAPER_ITEMS, workers=3, cache_dir=tmp_path
        )
        assert reference == cold == warm == parallel == warm_parallel

    @given(source=loop_sources())
    @settings(**COMMON)
    def test_random_loops_cached_equals_fresh(self, source, tmp_path_factory):
        cache = CompileCache(
            tmp_path_factory.mktemp("cache"), registry=MetricsRegistry()
        )
        item = SweepItem(name="fuzz", source=source, include_io=False)
        cold = compile_many([item], cache=cache)
        warm = compile_many([item], cache=cache)
        assert warm.items[0].cache_hit
        assert stable_json(cold.merged_payload()) == stable_json(
            warm.merged_payload()
        )


class TestCorruptEntriesRecompile:
    def test_truncated_entry_is_recompiled_to_the_same_bytes(self, tmp_path):
        cache = CompileCache(tmp_path, registry=MetricsRegistry())
        item = PAPER_ITEMS[0]
        cold = compile_many([item], cache=cache)
        path = cache.artifacts.path_for(PAYLOAD_STAGE, item.cache_key())
        path.write_text(path.read_text()[:100])  # truncate

        healed = compile_many([item], cache=cache)
        assert healed.items[0].cache_hit is False  # mismatch → recompiled
        assert healed.cache_stats()["corrupt"] == 1
        assert stable_json(cold.merged_payload()) == stable_json(
            healed.merged_payload()
        )
        # ... and the rewritten entry is trusted again
        again = compile_many([item], cache=cache)
        assert again.items[0].cache_hit is True

    def test_tampered_payload_is_not_trusted(self, tmp_path):
        cache = CompileCache(tmp_path, registry=MetricsRegistry())
        item = PAPER_ITEMS[1]
        cold = compile_many([item], cache=cache)
        path = cache.artifacts.path_for(PAYLOAD_STAGE, item.cache_key())
        entry = json.loads(path.read_text())
        entry["data"]["rate"] = "9999"  # lie about the rate
        path.write_text(json.dumps(entry))

        healed = compile_many([item], cache=cache)
        payload = healed.items[0].payload
        assert payload["rate"] != "9999"
        assert stable_json(cold.merged_payload()) == stable_json(
            healed.merged_payload()
        )
