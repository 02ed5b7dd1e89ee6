"""The whole-payload address (``cache_key``), the ``CompileCache`` view
of the artifact store, and the shared REPRO_CACHE env parser.  The
entries themselves are the artifact store's:
``tests/compiler/test_store.py`` covers their integrity."""

import pytest

from repro.batch import (
    PAYLOAD_STAGE,
    CompileCache,
    cache_key,
    default_cache_dir,
    resolve_cache_dir,
)
from repro.errors import LedgerError
from repro.obs import stable_json
from repro.obs.metrics import MetricsRegistry

PAYLOAD = {"loop": "tiny", "rate": "1/2", "nested": {"a": 1, "b": [1, 2]}}


@pytest.fixture
def cache(tmp_path):
    return CompileCache(tmp_path / "cache", registry=MetricsRegistry())


def counters(cache):
    """The payload entry's per-stage counters."""
    return {
        name: cache.artifacts.registry.counter(
            f"stage.cache.{name}.{PAYLOAD_STAGE}"
        ).value
        for name in ("hit", "miss", "corrupt", "store")
    }


class TestCacheKey:
    def test_pure_function_of_inputs(self):
        assert cache_key("do a:\n  X[i] = X[i-1]") == cache_key(
            "do a:\n  X[i] = X[i-1]"
        )

    def test_every_input_is_part_of_the_address(self):
        base = cache_key("src", {"k": 1.0}, 8, True, "event")
        assert base != cache_key("src2", {"k": 1.0}, 8, True, "event")
        assert base != cache_key("src", {"k": 2.0}, 8, True, "event")
        assert base != cache_key("src", {"k": 1.0}, 4, True, "event")
        assert base != cache_key("src", {"k": 1.0}, 8, False, "event")
        assert base != cache_key("src", {"k": 1.0}, 8, True, "step")

    def test_scalar_order_is_canonical(self):
        assert cache_key("s", {"a": 1.0, "b": 2.0}) == cache_key(
            "s", {"b": 2.0, "a": 1.0}
        )

    def test_no_scalars_equals_empty_scalars(self):
        assert cache_key("s", None) == cache_key("s", {})

    def test_unroll_is_part_of_the_address(self):
        base = cache_key("src", unroll=1)
        assert base == cache_key("src")  # U=1 is the default address
        assert base != cache_key("src", unroll=2)
        assert cache_key("src", unroll=2) != cache_key("src", unroll=3)

    def test_auto_and_its_resolution_are_distinct_addresses(self):
        """The factor "auto" resolves to depends on the analysis, not
        only on the hashed inputs — so "auto" gets its own slot."""
        assert cache_key("src", unroll="auto") != cache_key("src", unroll=1)
        assert cache_key("src", unroll="auto") != cache_key("src", unroll=2)


class TestStoreLoad:
    """``CompileCache.load``/``store`` address the store's
    :data:`PAYLOAD_STAGE` entry by ``cache_key``."""

    def test_round_trip(self, cache):
        key = cache_key("src")
        assert cache.load(key) is None  # cold miss
        path = cache.store(key, PAYLOAD)
        assert path == cache.artifacts.path_for(PAYLOAD_STAGE, key)
        assert (PAYLOAD_STAGE, key) in cache.artifacts
        loaded = cache.load(key)
        assert stable_json(loaded) == stable_json(PAYLOAD)
        assert counters(cache) == {
            "hit": 1, "miss": 1, "corrupt": 0, "store": 1,
        }

    def test_store_leaves_no_temp_files(self, cache):
        cache.store(cache_key("src"), PAYLOAD)
        leftovers = [
            p for p in cache.directory.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []
        assert len(cache.artifacts) == 1


class TestResolveCacheDir:
    """REPRO_CACHE shares the ledger's env parser — same falsy/truthy
    vocabulary, same explicit-path validation."""

    @pytest.mark.parametrize(
        "value", [None, "", "0", "false", "no", "off", "FALSE", " No "]
    )
    def test_falsy_means_off(self, value):
        assert resolve_cache_dir(value) is None

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "TRUE"])
    def test_truthy_selects_the_default_dir(self, value, tmp_path):
        assert resolve_cache_dir(value, root=tmp_path) == default_cache_dir(
            tmp_path
        )

    def test_explicit_path_is_created_and_used(self, tmp_path):
        target = tmp_path / "deep" / "cache"
        assert resolve_cache_dir(str(target)) == target
        assert target.is_dir()

    def test_unwritable_explicit_path_errors(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(LedgerError):
            resolve_cache_dir(str(blocker / "cache"))
