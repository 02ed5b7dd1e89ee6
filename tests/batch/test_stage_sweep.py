"""Sweeps through the per-stage artifact store: stage stats on items,
failing-stage attribution in error records, and aggregation."""

from __future__ import annotations

import pytest

from repro.batch import SweepItem, compile_many, compile_one
from repro.obs.metrics import MetricsRegistry

GOOD = SweepItem(name="ok", source="doall L:\n  A[i] = X[i] + 1\n")
CARRIED = SweepItem(
    name="carried",
    source="do L2:\n  A[i] = X[i] + A[i-1]\n",
    include_io=False,
)
BROKEN = SweepItem(name="broken", source="not a loop")
BAD_UNROLL = SweepItem(name="bad-unroll", source=GOOD.source, unroll=999)


class TestStageStats:
    def test_cached_items_carry_stage_outcomes(self, tmp_path):
        result = compile_one(GOOD, cache_dir=tmp_path)
        assert result.ok
        assert result.stage_outcomes is not None
        assert result.stage_outcomes["parse"] == "computed"
        assert result.stage_stats["miss"] > 0
        assert result.stage_stats["hit"] == 0

    def test_warm_item_hits_every_cacheable_stage(self, tmp_path):
        compile_one(GOOD, cache_dir=tmp_path)
        warm = compile_one(GOOD, cache_dir=tmp_path)
        # the warm item is served by its whole-payload entry, so the
        # staged compiler never even runs
        assert warm.cache_hit
        assert warm.stage_outcomes is None

    def test_l1_invalidation_falls_back_to_stage_hits(self, tmp_path):
        from repro.batch.cache import PAYLOAD_STAGE
        from repro.compiler import ArtifactStore

        compile_one(GOOD, cache_dir=tmp_path)
        # drop the whole-payload entry; the per-stage artifacts survive
        ArtifactStore(tmp_path).path_for(
            PAYLOAD_STAGE, GOOD.cache_key()
        ).unlink()
        rebuilt = compile_one(GOOD, cache_dir=tmp_path)
        assert rebuilt.ok and not rebuilt.cache_hit
        assert rebuilt.stage_outcomes is not None
        assert all(
            outcome == ("computed" if stage == "summarize" else "hit")
            for stage, outcome in rebuilt.stage_outcomes.items()
        )
        assert rebuilt.stage_stats["hit"] > 0

    def test_uncached_sweep_has_no_stage_stats(self):
        result = compile_one(GOOD, cache_dir=None)
        assert result.ok
        assert result.stage_outcomes is None

    def test_stage_cache_stats_aggregate(self, tmp_path):
        result = compile_many(
            [GOOD, CARRIED], cache_dir=tmp_path, workers=1
        )
        stats = result.stage_cache_stats()
        assert stats["miss"] > 0
        assert stats["hit"] == 0
        by_stage = stats["by_stage"]
        assert by_stage["parse"]["computed"] == 2

    def test_counters_reach_the_given_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.enable()
        compile_many(
            [GOOD], cache_dir=tmp_path, workers=1, registry=registry
        )
        assert registry.counter("stage.cache.miss").value > 0
        assert registry.counter("stage.cache.store").value > 0


class TestFailingStage:
    def test_parse_failure_names_parse(self, tmp_path):
        result = compile_one(BROKEN, cache_dir=tmp_path)
        assert not result.ok
        assert result.error["stage"] == "parse"

    def test_invalid_unroll_names_validate(self, tmp_path):
        result = compile_one(BAD_UNROLL, cache_dir=tmp_path)
        assert not result.ok
        assert result.error["stage"] == "validate"

    def test_stage_is_stable_cold_vs_warm(self, tmp_path):
        cold = compile_one(BROKEN, cache_dir=tmp_path)
        warm = compile_one(BROKEN, cache_dir=tmp_path)
        assert cold.error == warm.error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stage_survives_worker_transport(self, tmp_path, workers):
        result = compile_many(
            [GOOD, BROKEN], cache_dir=tmp_path, workers=workers
        )
        broken = result.items[1]
        assert broken.error["stage"] == "parse"

    def test_uncached_failures_are_attributed_too(self):
        # the façade path runs the same stages, so even cache-off
        # errors name their failing stage
        result = compile_one(BROKEN, cache_dir=None)
        assert not result.ok
        assert result.error["stage"] == "parse"
