"""``compile_many`` and the sweep manifest layer: deterministic merge,
failure isolation, cache accounting, manifest validation."""

import json

import pytest

from repro.batch import (
    CompileCache,
    SweepItem,
    compile_many,
    load_manifest,
    scaling_items,
)
from repro.errors import ReproError
from repro.obs import stable_json
from repro.obs.metrics import MetricsRegistry

GOOD = SweepItem(
    name="good",
    source="do good:\n  A[i] = A[i-1] + IN[i]",
    include_io=False,
)
GOOD2 = SweepItem(
    name="good2",
    source="do good2:\n  B[i] = B[i-1] + IN[i]\n  C[i] = B[i] + IN[i]",
    include_io=False,
)
BAD_PARSE = SweepItem(name="bad-parse", source="this is not a loop")


class TestMerge:
    def test_results_follow_manifest_order(self):
        result = compile_many([GOOD2, BAD_PARSE, GOOD])
        assert [item.name for item in result.items] == [
            "good2", "bad-parse", "good",
        ]
        assert [item.index for item in result.items] == [0, 1, 2]

    def test_one_vs_many_workers_merge_identically(self):
        items = scaling_items(sizes=(4, 8))
        serial = compile_many(items, workers=1)
        parallel = compile_many(items, workers=3)
        assert stable_json(serial.merged_payload()) == stable_json(
            parallel.merged_payload()
        )

    def test_cold_vs_warm_cache_merge_identically(self, tmp_path):
        items = scaling_items(sizes=(4,))
        cold = compile_many(items, cache_dir=tmp_path)
        warm = compile_many(items, cache_dir=tmp_path)
        assert warm.hit_rate == 1.0
        assert stable_json(cold.merged_payload()) == stable_json(
            warm.merged_payload()
        )

    def test_merged_payload_carries_no_cache_or_worker_state(self, tmp_path):
        result = compile_many([GOOD], cache_dir=tmp_path)
        text = stable_json(result.merged_payload())
        assert "cache" not in text
        assert "hit" not in text
        assert "worker" not in text


class TestFailureIsolation:
    def test_error_lands_at_its_manifest_position(self):
        result = compile_many([GOOD, BAD_PARSE, GOOD2], workers=2)
        assert [item.status for item in result.items] == [
            "ok", "error", "ok",
        ]
        failed = result.items[1]
        assert failed.error["type"] == "LoopIRError"
        assert failed.payload is None
        assert result.n_errors == 1

    def test_error_messages_are_stable_across_worker_counts(self):
        serial = compile_many([BAD_PARSE, GOOD])
        parallel = compile_many([BAD_PARSE, GOOD], workers=2)
        assert (
            serial.items[0].error == parallel.items[0].error
        )
        assert stable_json(serial.merged_payload()) == stable_json(
            parallel.merged_payload()
        )

    def test_failures_are_never_cached(self, tmp_path):
        cache = CompileCache(tmp_path, registry=MetricsRegistry())
        compile_many([BAD_PARSE], cache=cache)
        assert len(cache.artifacts) == 0
        rerun = compile_many([BAD_PARSE], cache=cache)
        assert rerun.items[0].cache_hit is False

    def test_no_temp_files_survive_a_sweep(self, tmp_path):
        compile_many([GOOD, BAD_PARSE], cache_dir=tmp_path, workers=2)
        assert any(tmp_path.rglob("*.json"))
        assert list(tmp_path.rglob("*.tmp")) == []


class TestCacheAccounting:
    def test_counters_reach_the_given_registry(self, tmp_path):
        registry = MetricsRegistry()
        compile_many([GOOD, GOOD2], cache_dir=tmp_path, registry=registry)
        assert registry.counter("stage.cache.miss.summarize").value == 2
        assert registry.counter("stage.cache.store.summarize").value == 2
        assert registry.counter("batch.sweep.items").value == 2
        compile_many([GOOD, GOOD2], cache_dir=tmp_path, registry=registry)
        assert registry.counter("stage.cache.hit.summarize").value == 2

    def test_cache_stats_aggregate(self, tmp_path):
        cold = compile_many([GOOD, GOOD2], cache_dir=tmp_path)
        stats = cold.cache_stats()
        assert stats["miss"] == 2 and stats["store"] == 2
        warm = compile_many([GOOD, GOOD2], cache_dir=tmp_path)
        assert warm.cache_stats()["hit"] == 2
        assert warm.hit_rate == 1.0

    def test_summary_rehydrates_from_item_payload(self):
        result = compile_many([GOOD])
        summary = result.items[0].summary()
        assert summary.loop == "good"
        assert str(summary.rate) == "1"
        assert summary.schedule.initiation_interval >= 1


class TestHitRate:
    def test_errored_items_do_not_dilute_the_rate(self, tmp_path):
        compile_many([GOOD, GOOD2], cache_dir=tmp_path)  # warm the cache
        warm = compile_many([GOOD, GOOD2, BAD_PARSE], cache_dir=tmp_path)
        # bad-parse performed a lookup that can never hit (failures are
        # never stored) — it must not pin the rate below 1.0
        assert warm.n_errors == 1
        assert warm.hit_rate == 1.0

    def test_cache_off_items_report_zero_not_crash(self):
        result = compile_many([GOOD])
        assert result.hit_rate == 0.0
        assert not result.items[0].cache_lookup

    def test_cold_rate_is_zero(self, tmp_path):
        cold = compile_many([GOOD, GOOD2], cache_dir=tmp_path)
        assert cold.hit_rate == 0.0
        assert all(item.cache_lookup for item in cold.items)


class RecordingProgress:
    """Protocol double for compile_many's dispatch/finish/close calls."""

    def __init__(self):
        self.calls = []

    def dispatch(self, name):
        self.calls.append(("dispatch", name))

    def finish(self, name, cache_hit, cache_lookup, error):
        self.calls.append(("finish", name, cache_hit, cache_lookup, error))

    def close(self):
        self.calls.append(("close",))


class TestProgressProtocol:
    def test_serial_sweep_drives_the_protocol(self):
        progress = RecordingProgress()
        compile_many([GOOD, BAD_PARSE], progress=progress)
        assert progress.calls[0] == ("dispatch", "good")
        assert ("finish", "good", False, False, False) in progress.calls
        assert ("finish", "bad-parse", False, False, True) in progress.calls
        assert progress.calls[-1] == ("close",)

    def test_parallel_sweep_finishes_every_item(self):
        progress = RecordingProgress()
        compile_many([GOOD, GOOD2], workers=2, progress=progress)
        finished = {c[1] for c in progress.calls if c[0] == "finish"}
        assert finished == {"good", "good2"}
        assert progress.calls[-1] == ("close",)


class TestTracing:
    def test_serial_traced_sweep_builds_span_trees(self):
        from repro.obs import Tracer

        tracer = Tracer(worker="parent")
        result = compile_many([GOOD], tracer=tracer)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, span)
        item = by_name["item:good"]
        assert item.parent_id is None
        compile_span = by_name["compile"]
        assert compile_span.parent_id == item.span_id
        # the pass manager nests one span per stage inside the compile
        # span (which is itself inside the item span)
        stages = [s for s in tracer.spans if s.name.startswith("stage.")]
        assert {"stage.parse", "stage.translate"} <= {s.name for s in stages}
        assert all(s.parent_id == compile_span.span_id for s in stages)
        assert result.items[0].timings["stage.parse"] > 0  # rows come back

    def test_item_span_duration_tracks_measured_wall(self):
        from repro.obs import Tracer

        tracer = Tracer(worker="parent")
        result = compile_many([GOOD, GOOD2], tracer=tracer)
        spans = {
            s.name: s for s in tracer.spans if s.name.startswith("item:")
        }
        for item in result.items:
            span = spans[f"item:{item.name}"]
            # the span wraps the same region `wall` measures; allow 10%
            # plus a small absolute floor for sub-millisecond compiles
            assert abs(span.duration - item.wall) <= max(
                0.1 * item.wall, 0.005
            )

    def test_parallel_traced_sweep_writes_one_shard_per_worker(
        self, tmp_path
    ):
        from repro.obs import Tracer, merge_traces, read_shard

        tracer = Tracer(worker="parent")
        with tracer.span("sweep"):
            result = compile_many(
                scaling_items(sizes=(4, 6, 8, 10)),
                workers=2,
                tracer=tracer,
                shard_dir=tmp_path,
            )
        assert len(result.span_shards) == 2  # every pool process joined
        for shard in result.span_shards:
            header, spans = read_shard(shard)
            assert header["trace_id"] == tracer.trace_id
            assert header["shard"].startswith("worker-")
        document = merge_traces(result.span_shards, parent=tracer)
        lanes = document["otherData"]["lanes"]
        assert lanes["0"] == "parent"
        assert sum(
            1 for name in lanes.values() if name.startswith("worker-")
        ) == 2
        item_spans = [
            e
            for e in document["traceEvents"]
            if e.get("cat") == "span" and e["name"].startswith("item:")
        ]
        assert len(item_spans) == result.n_items

    def test_traced_parallel_sweep_without_shard_dir_rejected(self):
        from repro.obs import Tracer

        # two items so the len(tasks) <= 1 serial shortcut doesn't apply
        with pytest.raises(ReproError):
            compile_many([GOOD, GOOD2], workers=2, tracer=Tracer())

    def test_untraced_sweep_records_no_spans(self):
        from repro.batch import sweep as sweep_module

        result = compile_many([GOOD])
        assert result.span_shards == []
        assert sweep_module._WORKER_TRACER is None

    def test_null_tracer_counts_as_tracing_off(self):
        from repro.obs import NULL_TRACER

        # falsy tracer + no shard_dir must not raise for workers > 1
        result = compile_many(
            [GOOD, GOOD2], workers=2, tracer=NULL_TRACER
        )
        assert result.span_shards == []


class TestTimingSummary:
    def test_lanes_and_critical_path(self):
        result = compile_many([GOOD, GOOD2])
        timing = result.timing_summary()
        assert timing["n_items"] == 2
        assert timing["busy_seconds"] > 0
        (lane,) = timing["lanes"].values()  # serial: one lane
        assert lane["items"] == 2
        critical = timing["critical_path"]
        assert critical["busy_seconds"] == pytest.approx(
            timing["busy_seconds"]
        )
        assert len(critical["items"]) == 2
        # slowest first
        seconds = [entry["seconds"] for entry in critical["items"]]
        assert seconds == sorted(seconds, reverse=True)

    def test_phase_percentiles_present_when_traced(self):
        from repro.obs import Tracer

        result = compile_many([GOOD, GOOD2], tracer=Tracer())
        stages = result.timing_summary()["stages"]
        assert "item" in stages
        assert "stage.parse" in stages
        stats = stages["stage.parse"]
        assert stats["count"] == 2
        assert stats["p50"] is not None
        assert stats["exact_percentiles"] is True

    def test_registry_gets_item_and_phase_timers(self):
        from repro.obs import Tracer

        registry = MetricsRegistry()
        compile_many([GOOD], tracer=Tracer(), registry=registry)
        dump = registry.dump()["timers"]
        assert dump["sweep.item"]["count"] == 1
        assert dump["stage.parse"]["count"] == 1
        assert dump["compile.total"]["count"] == 1

    def test_pool_workers_hand_back_the_serial_stage_rows(self):
        def rows(workers):
            registry = MetricsRegistry()
            result = compile_many([GOOD, GOOD2], workers=workers,
                                  registry=registry)
            assert all(item.timings for item in result.items)
            return {
                name: timer["count"]
                for name, timer in registry.dump()["timers"].items()
            }

        serial = rows(1)
        assert serial["stage.parse"] == serial["compile.total"] == 2
        assert rows(2) == serial

    def test_storeless_items_report_no_stage_cache_outcomes(self):
        result = compile_many([GOOD])
        assert result.items[0].stage_outcomes is None
        assert result.stage_cache_stats()["by_stage"] == {}


class TestCompileSeam:
    def test_items_compile_through_the_package_attribute(self, monkeypatch):
        """A wrapper installed on ``repro.compiler.compile_staged`` sees
        every item compile (tpnbench times its ``compiler.staged`` layer
        that way)."""
        import repro.compiler

        calls = []
        original = repro.compiler.compile_staged

        def wrapped(*args, **kwargs):
            calls.append(args[0].source)
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.compiler, "compile_staged", wrapped)
        compile_many([GOOD, GOOD2])
        assert calls == [GOOD.source, GOOD2.source]


class TestArguments:
    def test_zero_workers_rejected(self):
        with pytest.raises(ReproError):
            compile_many([GOOD], workers=0)

    def test_cache_and_cache_dir_are_exclusive(self, tmp_path):
        with pytest.raises(ReproError):
            compile_many(
                [GOOD],
                cache=CompileCache(tmp_path),
                cache_dir=tmp_path,
            )

    def test_plain_mappings_are_accepted(self):
        result = compile_many(
            [{"name": "m", "source": GOOD.source, "include_io": False}]
        )
        assert result.items[0].ok


class TestManifest:
    def write(self, tmp_path, data):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(data))
        return path

    def test_bare_list_and_items_wrapper_both_load(self, tmp_path):
        entry = {"name": "a", "source": GOOD.source, "include_io": False}
        for data in ([entry], {"items": [entry]}):
            items = load_manifest(self.write(tmp_path, data))
            assert items[0].name == "a"
            assert items[0].include_io is False

    def test_file_refs_resolve_relative_to_the_manifest(self, tmp_path):
        (tmp_path / "body.loop").write_text(GOOD.source)
        items = load_manifest(
            self.write(tmp_path, [{"name": "a", "file": "body.loop"}])
        )
        assert items[0].source == GOOD.source

    def test_duplicate_names_rejected(self, tmp_path):
        entry = {"name": "dup", "source": GOOD.source}
        with pytest.raises(ReproError, match="duplicate"):
            load_manifest(self.write(tmp_path, [entry, dict(entry)]))

    def test_source_and_file_are_exclusive_and_required(self, tmp_path):
        with pytest.raises(ReproError, match="'source' or 'file'"):
            load_manifest(self.write(tmp_path, [{"name": "x"}]))
        with pytest.raises(ReproError, match="'source' or 'file'"):
            load_manifest(
                self.write(
                    tmp_path,
                    [{"name": "x", "source": "s", "file": "f"}],
                )
            )

    def test_bad_engine_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="engine"):
            load_manifest(
                self.write(
                    tmp_path,
                    [{"name": "x", "source": "s", "engine": "warp"}],
                )
            )

    def test_unroll_loads_and_reaches_the_compiled_payload(self, tmp_path):
        items = load_manifest(
            self.write(
                tmp_path,
                [
                    {"name": "a", "source": GOOD.source, "unroll": 2},
                    {"name": "b", "source": GOOD.source, "unroll": "auto"},
                ],
            )
        )
        assert [item.unroll for item in items] == [2, "auto"]
        result = compile_many(
            [{"name": "m", "source": GOOD.source, "include_io": False,
              "unroll": 2}]
        )
        assert result.items[0].ok
        assert result.items[0].payload["unroll"] == 2

    def test_bad_unroll_rejected_with_its_position(self, tmp_path):
        with pytest.raises(ReproError, match="must be >= 1"):
            load_manifest(
                self.write(
                    tmp_path,
                    [{"name": "x", "source": "s", "unroll": 0}],
                )
            )
        with pytest.raises(ReproError, match="exceeds the cap"):
            load_manifest(
                self.write(
                    tmp_path,
                    [{"name": "x", "source": "s", "unroll": 400}],
                )
            )

    def test_scaling_items_are_deterministic(self):
        assert scaling_items(sizes=(4, 8)) == scaling_items(sizes=(4, 8))
        names = [item.name for item in scaling_items(sizes=(4, 8))]
        assert names == ["chain-4", "chain-8", "recurrence-4", "recurrence-8"]
