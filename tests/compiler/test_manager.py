"""PassManager semantics: partial hits, cross-request convergence,
hydration accounting and failing-stage attribution."""

from __future__ import annotations

import pytest

from repro.compiler import (
    ArtifactStore,
    PassManager,
    compile_staged,
    failing_stage,
    make_request,
    mark_stage,
)
from repro.errors import ReproError, ScheduleError
from repro.obs.metrics import MetricsRegistry
from tests.conftest import L1_SOURCE, L2_SOURCE

FRAC5 = """
do F5:
    A[i] = X[i] + B[i-5]
    B[i] = A[i] * 2
"""


def staged(source, store, **kwargs):
    return compile_staged(make_request(source, **kwargs), store)


class TestPartialHits:
    def test_downstream_param_change_reuses_upstream(self, tmp_path):
        store = ArtifactStore(tmp_path)
        staged(L2_SOURCE, store, include_io=False)
        _, outcomes = staged(
            L2_SOURCE, store, include_io=False, pipeline_stages=2
        )
        # the whole core pipeline is untouched by the SCP depth: every
        # stage resolves from the store ("hit", or "hydrated" when the
        # new SCP suffix needed its live objects back) — never computed
        for name in (
            "parse",
            "translate",
            "rate_analysis",
            "unroll",
            "build_pn",
            "simulate",
            "rate",
        ):
            assert outcomes[name] in ("hit", "hydrated"), (name, outcomes)
        # the expensive simulation is served purely from projections
        assert outcomes["simulate"] == "hit"
        assert outcomes["rate"] == "hit"
        # only the SCP suffix is new work
        assert outcomes["scp_build"] == "computed"
        assert outcomes["scp_simulate"] == "computed"
        assert outcomes["scp_extract"] == "computed"

    def test_source_change_misses_everything_cacheable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        staged(L1_SOURCE, store, include_io=False)
        _, outcomes = staged(L2_SOURCE, store, include_io=False)
        assert set(outcomes.values()) == {"computed"}

    def test_unroll_change_reuses_the_frontend(self, tmp_path):
        store = ArtifactStore(tmp_path)
        staged(FRAC5, store, include_io=False, unroll=1)
        _, outcomes = staged(FRAC5, store, include_io=False, unroll=2)
        assert outcomes["rate_analysis"] == "hit"
        # parse and translate hit the store and then hydrated: the
        # recomputing unroll stage needs the live dataflow graph back
        assert outcomes["translate"] == "hydrated"
        assert outcomes["parse"] == "hydrated"
        assert outcomes["unroll"] == "computed"
        assert outcomes["simulate"] == "computed"


class TestConvergence:
    def test_auto_converges_onto_explicit_factor(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload_auto, _ = staged(FRAC5, store, include_io=False, unroll="auto")
        factor = payload_auto["unroll"]
        assert factor > 1
        _, outcomes = staged(FRAC5, store, include_io=False, unroll=factor)
        # the unrolled graphs are identical, so every stage downstream
        # of unroll converges onto the auto request's artifacts
        for name in ("build_pn", "simulate", "extract_kernel", "rate"):
            assert outcomes[name] == "hit", (name, outcomes)

    def test_engines_converge_downstream_of_simulate(self, tmp_path):
        store = ArtifactStore(tmp_path)
        staged(L2_SOURCE, store, include_io=False, engine="event")
        _, outcomes = staged(L2_SOURCE, store, include_io=False, engine="step")
        # both engines detect bit-identical frusta: simulate itself
        # re-runs (its params include the engine) but its fingerprint
        # matches, so kernel extraction and verification still hit
        assert outcomes["simulate"] == "computed"
        assert outcomes["extract_kernel"] == "hit"
        assert outcomes["verify"] == "hit"

    def test_payloads_identical_cold_vs_partial(self, tmp_path):
        from repro.obs import stable_json

        cold_store = ArtifactStore(tmp_path / "cold")
        warm_store = ArtifactStore(tmp_path / "warm")
        staged(FRAC5, warm_store, include_io=False, unroll=1)
        cold, _ = staged(FRAC5, cold_store, include_io=False, unroll=2)
        warm, _ = staged(FRAC5, warm_store, include_io=False, unroll=2)
        assert stable_json(cold) == stable_json(warm)


class TestHydration:
    def test_hydrations_are_counted_separately(self, tmp_path):
        reg = MetricsRegistry()
        reg.enable()
        store = ArtifactStore(tmp_path, registry=reg)
        staged(FRAC5, store, include_io=False, unroll=1)
        hits_before = reg.counter("stage.cache.hit").value
        staged(FRAC5, store, include_io=False, unroll=2)
        assert reg.counter("stage.cache.hydrate").value >= 1
        assert reg.counter("stage.cache.hydrate.translate").value == 1
        # hydration never double-counts as a hit: translate was loaded
        # from the store exactly once (the warm run), and hydrating it
        # left the hit counter alone
        assert reg.counter("stage.cache.hit.translate").value == 1
        assert reg.counter("stage.cache.hit").value > hits_before

    def test_fully_warm_run_hydrates_nothing(self, tmp_path):
        reg = MetricsRegistry()
        reg.enable()
        store = ArtifactStore(tmp_path, registry=reg)
        staged(L1_SOURCE, store, include_io=False)
        staged(L1_SOURCE, store, include_io=False)
        assert reg.counter("stage.cache.hydrate").value == 0


class TestFailureAttribution:
    def test_parse_failure_names_parse(self, tmp_path):
        with pytest.raises(ReproError) as info:
            staged("not a loop at all", ArtifactStore(tmp_path))
        assert failing_stage(info.value) == "parse"

    def test_bad_unroll_is_tagged_validate(self):
        with pytest.raises(ReproError) as info:
            make_request(L1_SOURCE, unroll=0)
        assert failing_stage(info.value) == "validate"

    def test_compute_failure_is_tagged_by_the_manager(
        self, tmp_path, monkeypatch
    ):
        import dataclasses

        from repro.compiler.stages import STAGES

        def explode(ctx):
            raise ScheduleError("forced verification failure")

        monkeypatch.setitem(
            STAGES,
            "verify",
            dataclasses.replace(STAGES["verify"], compute=explode),
        )
        with pytest.raises(ScheduleError) as info:
            staged(L2_SOURCE, ArtifactStore(tmp_path), include_io=False)
        assert failing_stage(info.value) == "verify"

    def test_first_tag_wins(self):
        error = ReproError("boom")
        mark_stage(error, "simulate")
        mark_stage(error, "verify")
        assert failing_stage(error) == "simulate"

    def test_untagged_exception_has_no_stage(self):
        assert failing_stage(ValueError("plain")) is None

    def test_failures_are_never_cached(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ReproError):
            staged("still not a loop", store)
        assert len(store) == 0


class FakeClock:
    """A ``perf_counter`` stand-in that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def stage_costs(monkeypatch):
    """Every stage compute advances a fake clock by a known cost (stage
    number i costs i seconds), so self times are exact."""
    import dataclasses

    from repro.compiler import manager as manager_module
    from repro.compiler.stages import STAGES

    clock = FakeClock()
    monkeypatch.setattr(manager_module, "perf_counter", clock)
    costs = {name: float(i) for i, name in enumerate(STAGES, start=1)}
    for name, stage in list(STAGES.items()):

        def compute(ctx, original=stage.compute, cost=costs[name]):
            clock.now += cost
            return original(ctx)

        monkeypatch.setitem(
            STAGES, name, dataclasses.replace(stage, compute=compute)
        )
    return costs


def rows_sum_to_total(timings):
    *rows, total = timings.values()
    assert list(timings)[-2:] == ["compile.unattributed", "compile.total"]
    assert sum(rows) == pytest.approx(total)


class TestStageTiming:
    def test_storeless_compile_rows_in_stage_order(self, stage_costs):
        registry = MetricsRegistry()
        manager = PassManager(
            make_request(L2_SOURCE, include_io=False), registry=registry
        )
        manager.run()
        ran = [
            "parse", "translate", "rate_analysis", "unroll", "build_pn",
            "simulate", "extract_kernel", "rate", "verify", "summarize",
        ]
        expected = {f"stage.{name}": stage_costs[name] for name in ran}
        expected["compile.unattributed"] = 0.0
        expected["compile.total"] = sum(stage_costs[name] for name in ran)
        assert manager.timings == expected
        assert list(manager.timings) == list(expected)
        timers = registry.dump()["timers"]
        assert {name: timers[name]["count"] for name in timers} == {
            name: 1 for name in expected
        }

    def test_hydration_inside_a_compute_counts_for_the_hydrated_stage(
        self, tmp_path, stage_costs
    ):
        from repro.obs import Tracer

        store = ArtifactStore(tmp_path)
        PassManager(
            make_request(FRAC5, include_io=False, unroll=1), store=store
        ).run()
        tracer = Tracer()
        manager = PassManager(
            make_request(FRAC5, include_io=False, unroll=2),
            store=store,
            tracer=tracer,
        )
        manager.run()
        assert manager.outcomes["translate"] == "hydrated"
        assert manager.outcomes["parse"] == "hydrated"
        timings = manager.timings
        # unroll's compute recomputed translate, which recomputed parse:
        # each is charged to its own row, never to the stage that pulled
        # it in; a store hit costs nothing on the fake clock
        assert timings["stage.unroll"] == stage_costs["unroll"]
        assert timings["stage.translate"] == stage_costs["translate"]
        assert timings["stage.parse"] == stage_costs["parse"]
        assert timings["stage.rate_analysis"] == 0.0
        rows_sum_to_total(timings)
        names = {span.span_id: span.name for span in tracer.spans}
        parents = [
            names.get(span.parent_id)
            for span in tracer.spans
            if span.name == "stage.translate"
        ]
        # the store hit resolves at top level; its hydration is a span
        # nested in the consumer that needed the live graph
        assert parents == [None, "stage.unroll"]

    def test_real_clock_rows_sum_to_total(self, tmp_path):
        store = ArtifactStore(tmp_path)
        staged(FRAC5, store, include_io=False, unroll=1)
        for kwargs in ({}, {"store": store}):
            manager = PassManager(
                make_request(FRAC5, include_io=False, unroll=2), **kwargs
            )
            manager.run()
            rows_sum_to_total(manager.timings)
            assert all(seconds >= 0 for seconds in manager.timings.values())

    def test_failed_compile_still_reports_its_rows(self, monkeypatch):
        import dataclasses

        from repro.compiler.stages import STAGES

        def explode(ctx):
            raise ScheduleError("forced verification failure")

        monkeypatch.setitem(
            STAGES,
            "verify",
            dataclasses.replace(STAGES["verify"], compute=explode),
        )
        manager = PassManager(make_request(L2_SOURCE, include_io=False))
        with pytest.raises(ScheduleError):
            manager.run()
        assert "stage.verify" in manager.timings
        assert "stage.summarize" not in manager.timings
        rows_sum_to_total(manager.timings)

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        PassManager(
            make_request(L1_SOURCE, include_io=False), registry=registry
        ).run()
        assert registry.dump()["timers"] == {}

    def test_exposition_lists_stage_rows_first_in_stage_order(self):
        from repro.compiler import stage_ordered_exposition
        from repro.obs import parse_exposition

        registry = MetricsRegistry()
        PassManager(
            make_request(L1_SOURCE, include_io=False), registry=registry
        ).run()
        registry.record_time("core.verify_schedule", 0.001)
        for source in (registry, registry.dump()):
            families = [
                name
                for name in parse_exposition(stage_ordered_exposition(source))
                if name.startswith(("stage_", "compile_", "core_"))
            ]
            assert families[-1] == "core_verify_schedule_seconds"
            assert families[:3] == [
                "stage_parse_seconds",
                "stage_translate_seconds",
                "stage_rate_analysis_seconds",
            ]
            assert families[-3:-1] == [
                "compile_unattributed_seconds",
                "compile_total_seconds",
            ]


class TestOnePayloadBuilder:
    """``summarize`` merges the stage projections: a compile constructs
    exactly the schedules ``extract_kernel`` / ``scp_extract`` derive,
    and no second copy for the payload."""

    @pytest.mark.parametrize("stages, derived", [(None, 1), (4, 2)])
    def test_compile_builds_only_the_derived_schedules(
        self, monkeypatch, tmp_path, stages, derived
    ):
        from repro.core.schedule import PipelinedSchedule
        from repro.pipeline import compile_loop

        built = []
        post_init = PipelinedSchedule.__post_init__

        def counting(schedule):
            built.append(schedule)
            post_init(schedule)

        monkeypatch.setattr(PipelinedSchedule, "__post_init__", counting)
        staged(L1_SOURCE, ArtifactStore(tmp_path), include_io=False,
               pipeline_stages=stages)  # cold: every stage computes
        assert len(built) == derived
        built.clear()
        compile_loop(L1_SOURCE, include_io=False, pipeline_stages=stages)
        assert len(built) == derived


class TestLazyKeys:
    def test_storeless_compiles_derive_no_keys_or_fingerprints(
        self, monkeypatch
    ):
        from repro.compiler import manager as manager_module
        from repro.pipeline import compile_loop

        def forbidden(*args, **kwargs):
            raise AssertionError("derived without a store")

        monkeypatch.setattr(manager_module, "content_fingerprint", forbidden)
        monkeypatch.setattr(manager_module, "request_key", forbidden)
        compile_loop(L1_SOURCE, include_io=False, pipeline_stages=4)
        compile_staged(make_request(FRAC5, include_io=False, unroll="auto"))

    def test_store_keys_are_unchanged(self, tmp_path):
        # the request keys a store files artifacts under, pinned from
        # the eager derivation: lazy derivation must not move them.
        # verify and scp_verify moved once, on purpose, at version 2:
        # a stored 12-iteration verdict is not an all-iteration proof
        import pathlib

        source = (
            pathlib.Path(__file__).resolve().parents[2] / "examples/l1.loop"
        ).read_text()
        staged(source, ArtifactStore(tmp_path), include_io=False,
               pipeline_stages=4)
        keys = {p.parent.name: p.stem for p in tmp_path.rglob("*.json")}
        assert keys == {
            "parse": "26a1291a6cebe6ba9b0a7d281a6f39b50d75dc5c2cfbf44684966090f4503ace",
            "translate": "499841e4bd37872d9bf22f13a3277b47f5a51766147dd2c604e2350083ebd2d3",
            "rate_analysis": "edca2cedb9435f08e960ac170efe86574abe0d7e0514bd6ce5b3c5550aae373a",
            "unroll": "7254a673ae75268d9fe04fce002814549de191df94da1ad15526c9354e7fdbfd",
            "build_pn": "90c46e28fca62f976e1b66758578699ce24e9d2f2eea29fe447ebf2a01532b8c",
            "simulate": "04361ac6122008a48cffa6691ef51c3ce04e6dad9c8b624fb0984790e64d3d71",
            "extract_kernel": "83fb271a4a73dbda7807ddd461d2c4585a3831f570eecbc7e9700dec7f27c9a5",
            "rate": "ada5a1e61e5c7600588664c75f8f0fb8525671eeb5108a773f58660796ad0f46",
            "verify": "9cd16381c21c3b02e5321203decc5f0be8a30278f8433a7bc97cc829c11448dd",
            "scp_build": "6589e0481e97f47e8365117e2fac6218509abc15723360bdb5adae3c72b87ad9",
            "scp_simulate": "54a52f6a1855a75af1b7770b708c2ea490f6ab3259e6fa94a492ed2a087fbf74",
            "scp_extract": "7b177490b484d589a5444403fc2dfab5aaa10c5fff76ed1b364a86035eb40bf6",
            "scp_verify": "d3b67fd3d8f36c99b9a6bf94eb5cec7acc4cc6530f0fb9d8d0a0975fab9c84db",
        }
