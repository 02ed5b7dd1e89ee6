"""Service-side stage-cache behavior: the unroll cache-key regression,
per-stage hit counters and the ``X-Stage-Hits`` sweep header."""

import json

from repro.batch import PAYLOAD_STAGE
from repro.obs.openmetrics import parse_exposition
from tests.conftest import L2_SOURCE
from tests.service.test_app import make_service, post, run

CARRIED = {"name": "l2", "source": L2_SOURCE, "include_io": False}


class TestUnrollCacheKey:
    def test_unroll_values_get_distinct_cache_entries(self, tmp_path):
        """Regression: the compile endpoint's cache key used to omit
        ``unroll``, so a cached ``unroll=1`` payload would be served
        for an ``unroll=2`` request (and vice versa)."""

        async def scenario():
            service = make_service(cache_dir=str(tmp_path / "cache"))
            service.start()
            base = await post(service, "/v1/compile", dict(CARRIED))
            unrolled = await post(
                service, "/v1/compile", {**CARRIED, "unroll": 2}
            )
            unrolled_again = await post(
                service, "/v1/compile", {**CARRIED, "unroll": 2}
            )
            return base, unrolled, unrolled_again

        base, unrolled, unrolled_again = run(scenario())
        assert base.status == unrolled.status == 200
        assert (
            base.headers["X-Compile-Key"]
            != unrolled.headers["X-Compile-Key"]
        )
        assert base.body != unrolled.body
        assert json.loads(unrolled.body.decode())["unroll"] == 2
        # and the unroll=2 entry itself is cached under its own key
        assert unrolled_again.headers["X-Cache"] == "hit"
        assert unrolled_again.body == unrolled.body


class TestStageCounters:
    def test_stage_hits_surface_in_metrics(self, tmp_path):
        async def scenario():
            service = make_service(cache_dir=str(tmp_path / "cache"))
            service.start()
            # same source at two unroll factors: the second compile
            # reuses the first one's frontend artifacts
            await post(service, "/v1/compile", dict(CARRIED))
            await post(service, "/v1/compile", {**CARRIED, "unroll": 2})
            return await service.handle("GET", "/metrics", {}, b"")

        response = run(scenario())
        text = response.body.decode()
        parse_exposition(text)  # must not raise
        samples = {
            line.split(" ")[0]: float(line.split(" ")[1])
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert samples["stage_cache_miss_total"] > 0
        assert samples["stage_cache_hit_total"] > 0
        assert samples["stage_cache_hydrate_total"] > 0

    def test_sweep_reports_stage_hits_header(self, tmp_path):
        async def scenario():
            service = make_service(cache_dir=str(tmp_path / "cache"))
            service.start()
            cold = await post(service, "/v1/sweep", {"items": [CARRIED]})
            # drop the whole-payload entry so the warm sweep exercises
            # the stage artifacts instead
            payloads = list((tmp_path / "cache" / PAYLOAD_STAGE).glob("*.json"))
            for entry in payloads:
                entry.unlink()
            warm = await post(service, "/v1/sweep", {"items": [CARRIED]})
            return cold, warm, payloads

        cold, warm, payloads = run(scenario())
        assert len(payloads) == 1
        assert cold.headers["X-Cache-Misses"] == "1"
        assert warm.headers["X-Cache-Misses"] == "1"
        assert cold.headers["X-Stage-Hits"] == "0"
        assert int(warm.headers["X-Stage-Hits"]) > 0
        assert cold.body == warm.body
