"""The service application object: endpoint contracts, byte-identity
with the CLI, backpressure, deadlines and graceful drain.

These tests drive :meth:`CompileService.handle` directly (no sockets)
with injected executors:

* ``InlineExecutor`` runs pool tasks synchronously in-process — the
  real compile path without process-pool startup cost;
* ``StalledExecutor`` never completes — admission, 429, deadline and
  drain behavior become deterministic.
"""

import asyncio
import io
import json
from concurrent.futures import Future

import pytest

from repro.batch.manifest import SweepItem
from repro.batch.sweep import compile_item_task
from repro.cli import main
from repro.obs.openmetrics import parse_exposition
from repro.service import CompileService, ServiceConfig
from tests.conftest import L1_SOURCE, L2_SOURCE

GOOD = {"name": "l2", "source": L2_SOURCE}
BAD = {"name": "broken", "source": "this is not a loop"}


class InlineExecutor:
    """Run submitted tasks synchronously on the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # pragma: no cover - surfaced by tests
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class StalledExecutor:
    """Hand out futures that never complete (until a test resolves
    them) — the deterministic stand-in for a saturated pool."""

    def __init__(self):
        self.futures = []
        self.tasks = []

    def submit(self, fn, *args):
        future = Future()
        self.futures.append(future)
        self.tasks.append(args[0] if args else None)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def make_service(executor=None, **overrides) -> CompileService:
    defaults = dict(workers=1, request_timeout=5.0)
    defaults.update(overrides)
    return CompileService(
        ServiceConfig(**defaults),
        executor=executor if executor is not None else InlineExecutor(),
    )


def run(coro):
    return asyncio.run(coro)


def post(service, path, payload):
    return service.handle("POST", path, {}, json.dumps(payload).encode())


def entry_for(payload: dict) -> dict:
    """A real worker return value for resolving stalled futures."""
    return compile_item_task((0, SweepItem.from_mapping(payload), None, True))


def cli_stdout(argv, expect_status=0) -> str:
    out = io.StringIO()
    status = main(argv, out=out)
    assert status == expect_status, out.getvalue()
    return out.getvalue()


class TestProbes:
    def test_healthz_ok(self):
        async def scenario():
            service = make_service()
            service.start()
            return await service.handle("GET", "/healthz")

        response = run(scenario())
        assert response.status == 200
        data = json.loads(response.body)
        assert data["status"] == "ok"
        assert data["api_version"] == 1
        assert data["workers"] == 1
        assert data["cache"] == "off"
        assert "X-Request-Id" in response.headers

    def test_healthz_draining_is_503(self):
        async def scenario():
            service = make_service()
            service.start()
            service.begin_drain()
            return await service.handle("GET", "/healthz")

        response = run(scenario())
        assert response.status == 503
        assert json.loads(response.body)["status"] == "draining"

    def test_metrics_is_valid_openmetrics(self):
        async def scenario():
            service = make_service()
            service.start()
            await post(service, "/v1/compile", GOOD)
            return await service.handle("GET", "/metrics")

        response = run(scenario())
        assert response.status == 200
        assert response.content_type.startswith(
            "application/openmetrics-text"
        )
        text = response.body.decode()
        parse_exposition(text)  # must not raise
        assert "service_requests_compile_total" in text
        assert "service_responses_200_total" in text
        assert "service_inflight" in text

    def test_metrics_lists_stage_rows_in_stage_order(self):
        async def scenario():
            service = make_service()
            service.start()
            await post(service, "/v1/compile", GOOD)
            return await service.handle("GET", "/metrics")

        families = list(parse_exposition(run(scenario()).body.decode()))
        timers = [
            name for name in families
            if name.startswith(("stage_", "compile_"))
            and name.endswith("_seconds")
        ]
        assert timers == [
            f"{name}_seconds"
            for name in (
                "stage_parse", "stage_translate", "stage_rate_analysis",
                "stage_unroll", "stage_build_pn", "stage_simulate",
                "stage_extract_kernel", "stage_rate", "stage_verify",
                "stage_summarize", "compile_unattributed", "compile_total",
            )
        ]

    def test_unknown_path_is_404_envelope(self):
        async def scenario():
            service = make_service()
            service.start()
            return await service.handle("GET", "/nope")

        response = run(scenario())
        assert response.status == 404
        assert json.loads(response.body)["error"]["type"] == "not-found"

    def test_wrong_method_is_405_with_allow(self):
        async def scenario():
            service = make_service()
            service.start()
            return await service.handle("DELETE", "/v1/compile")

        response = run(scenario())
        assert response.status == 405
        assert response.headers["Allow"] == "POST"
        assert (
            json.loads(response.body)["error"]["type"] == "method-not-allowed"
        )


class TestCompileEndpoint:
    def test_body_matches_cli_bytes(self, tmp_path):
        # the core contract: a served body is the CLI's stdout, byte
        # for byte, for the same compilation input
        loop_file = tmp_path / "l2.loop"
        loop_file.write_text(L2_SOURCE)
        expected = cli_stdout(["compile", str(loop_file), "--no-cache"])

        async def scenario():
            service = make_service()
            service.start()
            return await post(service, "/v1/compile", GOOD)

        response = run(scenario())
        assert response.status == 200
        assert response.headers["X-Cache"] == "off"
        assert response.body.decode("utf-8") == expected

    def test_cold_then_warm_cache_same_bytes(self, tmp_path):
        async def scenario():
            service = make_service(cache_dir=str(tmp_path / "cache"))
            service.start()
            cold = await post(service, "/v1/compile", GOOD)
            warm = await post(service, "/v1/compile", GOOD)
            return cold, warm

        cold, warm = run(scenario())
        assert cold.status == warm.status == 200
        assert cold.headers["X-Cache"] == "miss"
        assert warm.headers["X-Cache"] == "hit"
        assert cold.headers["X-Compile-Key"] == warm.headers["X-Compile-Key"]
        assert cold.body == warm.body

    def test_miss_reads_the_payload_entry_once(self, tmp_path, monkeypatch):
        """The service reads the whole-payload entry in-process; on a
        miss the pool task says so, and the worker compiles without
        reading it again.  Headers and counters are those of one
        lookup: one payload miss, one payload store."""
        from repro.batch.cache import PAYLOAD_STAGE
        from repro.compiler.store import ArtifactStore
        from repro.service.wire import parse_compile_request

        reads = []
        original = ArtifactStore.load

        def counting_load(self, stage, key):
            reads.append((stage, key))
            return original(self, stage, key)

        monkeypatch.setattr(ArtifactStore, "load", counting_load)

        async def scenario():
            service = make_service(cache_dir=str(tmp_path / "cache"))
            service.start()
            return service, await post(service, "/v1/compile", GOOD)

        service, response = run(scenario())
        key = parse_compile_request(json.dumps(GOOD).encode()).cache_key()
        assert response.status == 200
        assert response.headers["X-Cache"] == "miss"
        assert response.headers["X-Compile-Key"] == key
        assert reads.count((PAYLOAD_STAGE, key)) == 1
        counter = service.registry.counter
        assert counter(f"stage.cache.miss.{PAYLOAD_STAGE}").value == 1
        assert counter(f"stage.cache.hit.{PAYLOAD_STAGE}").value == 0
        assert counter(f"stage.cache.store.{PAYLOAD_STAGE}").value == 1

    def test_compile_failure_is_422_with_detail(self):
        async def scenario():
            service = make_service()
            service.start()
            return await post(service, "/v1/compile", BAD)

        response = run(scenario())
        assert response.status == 422
        error = json.loads(response.body)["error"]
        assert error["type"] == "unprocessable"
        assert error["detail"]["type"] == "LoopIRError"

    def test_invalid_body_is_400(self):
        async def scenario():
            service = make_service()
            service.start()
            return await service.handle(
                "POST", "/v1/compile", {}, b"not json"
            )

        response = run(scenario())
        assert response.status == 400

    def test_slots_released_after_requests(self):
        async def scenario():
            service = make_service(max_inflight=1, max_queue=0)
            service.start()
            for _ in range(3):
                response = await post(service, "/v1/compile", GOOD)
                assert response.status == 200
            assert service.inflight == 0
            return service.served

        assert run(scenario()) == 3


class TestSweepEndpoint:
    def test_body_matches_cli_sweep_output(self, tmp_path):
        items = [
            {"name": "l1", "source": L1_SOURCE},
            {"name": "l2", "source": L2_SOURCE},
            {"name": "broken", "source": "nope"},
        ]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"items": items}))
        merged = tmp_path / "merged.json"
        # exit 1: the CLI flags the broken item, but still merges
        cli_stdout_text = cli_stdout(
            ["sweep", str(manifest), "--no-cache", "-o", str(merged)],
            expect_status=1,
        )
        assert "wrote merged payload" in cli_stdout_text

        async def scenario():
            service = make_service()
            service.start()
            return await post(service, "/v1/sweep", {"items": items})

        response = run(scenario())
        assert response.status == 200
        assert response.headers["X-Sweep-Errors"] == "1"
        assert response.body.decode("utf-8") == merged.read_text()

    def test_cache_headers_count_hits(self, tmp_path):
        async def scenario():
            service = make_service(cache_dir=str(tmp_path / "cache"))
            service.start()
            first = await post(
                service, "/v1/sweep", {"items": [GOOD]}
            )
            second = await post(
                service, "/v1/sweep", {"items": [GOOD]}
            )
            return first, second

        first, second = run(scenario())
        assert first.headers["X-Cache-Misses"] == "1"
        assert second.headers["X-Cache-Hits"] == "1"
        assert first.body == second.body


class TestBackpressure:
    def test_saturation_is_429_then_retry_succeeds(self):
        async def scenario():
            stalled = StalledExecutor()
            service = make_service(
                executor=stalled, max_inflight=1, max_queue=0
            )
            service.start()
            first = asyncio.ensure_future(post(service, "/v1/compile", GOOD))
            while not stalled.futures:  # first request holds the slot
                await asyncio.sleep(0.01)

            rejected = await post(service, "/v1/compile", GOOD)
            assert rejected.status == 429
            retry_after = int(rejected.headers["Retry-After"])
            assert retry_after >= 1
            error = json.loads(rejected.body)["error"]
            assert error["type"] == "too-many-requests"
            assert error["retry_after_seconds"] == retry_after

            stalled.futures[0].set_result(entry_for(GOOD))
            ok = await first
            assert ok.status == 200

            stalled.futures.clear()
            retried = asyncio.ensure_future(
                post(service, "/v1/compile", GOOD)
            )
            while not stalled.futures:
                await asyncio.sleep(0.01)
            stalled.futures[0].set_result(entry_for(GOOD))
            return await retried

        assert run(scenario()).status == 200

    def test_rejection_is_counted(self):
        async def scenario():
            stalled = StalledExecutor()
            service = make_service(
                executor=stalled, max_inflight=1, max_queue=0
            )
            service.start()
            first = asyncio.ensure_future(post(service, "/v1/compile", GOOD))
            while not stalled.futures:
                await asyncio.sleep(0.01)
            await post(service, "/v1/compile", GOOD)
            stalled.futures[0].set_result(entry_for(GOOD))
            await first
            return service.registry.counter("service.rejected").value

        assert run(scenario()) == 1


class TestDeadlines:
    def test_timeout_is_504_and_work_is_reaped(self):
        async def scenario():
            stalled = StalledExecutor()
            service = make_service(executor=stalled, request_timeout=0.1)
            service.start()
            response = await post(service, "/v1/compile", GOOD)
            return service, response

        service, response = run(scenario())
        assert response.status == 504
        assert json.loads(response.body)["error"]["type"] == "timeout"
        # the pending pool future was cancelled, not abandoned
        assert service.registry.counter("service.requests.reaped").value == 1
        assert stalled_cancelled(service)
        assert service.inflight == 0

    def test_sweep_timeout_reaps_all_futures(self):
        async def scenario():
            stalled = StalledExecutor()
            service = make_service(executor=stalled, request_timeout=0.1)
            service.start()
            response = await post(
                service,
                "/v1/sweep",
                {"items": [GOOD, {"name": "two", "source": L1_SOURCE}]},
            )
            return stalled, response

        stalled, response = run(scenario())
        assert response.status == 504
        assert all(future.cancelled() for future in stalled.futures)


def stalled_cancelled(service: CompileService) -> bool:
    return service._executor.futures[0].cancelled()


class TestDrain:
    def test_inflight_request_completes_with_zero_drops(self):
        async def scenario():
            stalled = StalledExecutor()
            service = make_service(executor=stalled)
            service.start()
            inflight = asyncio.ensure_future(
                post(service, "/v1/compile", GOOD)
            )
            while not stalled.futures:
                await asyncio.sleep(0.01)

            service.begin_drain()
            refused = await post(service, "/v1/compile", GOOD)
            assert refused.status == 503
            assert (
                json.loads(refused.body)["error"]["type"]
                == "service-unavailable"
            )

            assert not await service.drained(0.05)  # work still running
            stalled.futures[0].set_result(entry_for(GOOD))
            response = await inflight
            assert await service.drained(1.0)
            return response

        response = run(scenario())
        assert response.status == 200  # admitted work was never dropped

    def test_drain_grace_expiry_reports_false(self):
        async def scenario():
            stalled = StalledExecutor()
            service = make_service(executor=stalled)
            service.start()
            inflight = asyncio.ensure_future(
                post(service, "/v1/compile", GOOD)
            )
            while not stalled.futures:
                await asyncio.sleep(0.01)
            service.begin_drain()
            result = await service.drained(0.1)
            inflight.cancel()
            return result

        assert run(scenario()) is False
