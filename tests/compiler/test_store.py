"""The artifact store's one verified-read routine, run over both kinds
of entry: a whole payload (``CompileCache``: the ``summarize`` entry,
addressed by ``cache_key``) and a stage artifact (``ArtifactStore``,
addressed by a request key) — round trips, the entry layout, corrupt
healing, counters, pickling, and a cache directory left in the
previous layouts."""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.batch import (
    PAYLOAD_STAGE,
    CompileCache,
    SweepItem,
    cache_key,
    compile_one,
)
from repro.compiler import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    compile_staged,
    make_request,
)
from repro.compiler.store import atomic_write_json
from repro.obs import stable_json
from repro.obs.metrics import MetricsRegistry
from tests.conftest import L2_SOURCE


def sha256_of(data) -> str:
    return hashlib.sha256(stable_json(data).encode("utf-8")).hexdigest()


class PayloadEntry:
    """A whole payload, through ``CompileCache``."""

    stage = PAYLOAD_STAGE
    key = cache_key("src")
    data = {"loop": "tiny", "rate": "1/2", "nested": {"a": 1, "b": [1, 2]}}

    def open(self, directory, registry=None):
        return CompileCache(directory, registry=registry)

    def store_of(self, front) -> ArtifactStore:
        return front.artifacts

    def write(self, front):
        return front.store(self.key, self.data)

    def read(self, front):
        return front.load(self.key)


class StageEntry:
    """A stage artifact, through ``ArtifactStore``."""

    stage = "parse"
    key = "k" * 64
    data = {"loop": "L1"}

    def open(self, directory, registry=None):
        return ArtifactStore(directory, registry=registry)

    def store_of(self, front) -> ArtifactStore:
        return front

    def write(self, front):
        return front.store(self.stage, self.key, "f" * 64, self.data)

    def read(self, front):
        entry = front.load(self.stage, self.key)
        return None if entry is None else entry["data"]


@pytest.fixture(params=[PayloadEntry(), StageEntry()], ids=["payload", "stage"])
def kind(request):
    return request.param


@pytest.fixture
def front(kind, tmp_path):
    return kind.open(tmp_path / "store", MetricsRegistry())


def counters(kind, front):
    """Every outcome's (total, this stage's) counter values."""
    registry = kind.store_of(front).registry
    return {
        outcome: (
            registry.counter(f"stage.cache.{outcome}").value,
            registry.counter(f"stage.cache.{outcome}.{kind.stage}").value,
        )
        for outcome in ("hit", "miss", "corrupt", "store")
    }


def rewrite(path, mutate) -> None:
    entry = json.loads(path.read_text(encoding="utf-8"))
    mutate(entry)
    path.write_text(json.dumps(entry), encoding="utf-8")


class TestRoundTrip:
    def test_store_then_load(self, kind, front):
        store = kind.store_of(front)
        path = kind.write(front)
        assert path == store.path_for(kind.stage, kind.key)
        assert stable_json(kind.read(front)) == stable_json(kind.data)
        assert (kind.stage, kind.key) in store
        assert len(store) == 1
        # the temp file the write staged through is gone
        assert [p.name for p in store.directory.rglob("*.tmp")] == []

    def test_miss_returns_none(self, kind, front):
        assert kind.read(front) is None
        assert counters(kind, front)["miss"] == (1, 1)

    def test_entries_partition_by_stage(self, kind, front):
        kind.write(front)
        assert kind.store_of(front).load("translate", kind.key) is None

    def test_entry_file_embeds_schema_key_and_hash(self, kind, front):
        entry = json.loads(kind.write(front).read_text(encoding="utf-8"))
        assert set(entry) == {
            "store_schema", "stage", "key", "fingerprint", "data",
            "data_sha256",
        }
        assert entry["store_schema"] == STORE_SCHEMA_VERSION
        assert (entry["stage"], entry["key"]) == (kind.stage, kind.key)
        assert entry["data"] == kind.data
        assert entry["data_sha256"] == sha256_of(kind.data)

    def test_survives_pickling_without_its_registry(self, kind, front):
        clone = pickle.loads(pickle.dumps(front))
        assert clone.directory == front.directory
        kind.write(clone)
        assert stable_json(kind.read(clone)) == stable_json(kind.data)
        # the clone counts in its own process's registry
        assert counters(kind, front)["store"] == (0, 0)
        assert kind.store_of(clone).counts == {
            kind.stage: {"store": 1, "hit": 1}
        }


class TestCorruptHealing:
    def test_truncated_entry_is_a_counted_corrupt_miss(self, kind, front):
        path = kind.write(front)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert kind.read(front) is None
        assert counters(kind, front) == {
            "hit": (0, 0), "miss": (1, 1), "corrupt": (1, 1),
            "store": (1, 1),
        }
        # the corrupt file was removed, so the next store heals the slot
        assert not path.exists()
        kind.write(front)
        assert stable_json(kind.read(front)) == stable_json(kind.data)

    def test_tampered_data_is_rejected(self, kind, front):
        path = kind.write(front)
        # the bytes no longer match data_sha256
        rewrite(path, lambda entry: entry["data"].update(rate="2/3"))
        assert kind.read(front) is None

    def test_wrong_key_in_entry_is_rejected(self, kind, front):
        path = kind.write(front)
        rewrite(path, lambda entry: entry.update(key="0" * 64))
        assert kind.read(front) is None

    def test_wrong_stage_in_entry_is_rejected(self, kind, front):
        path = kind.write(front)
        rewrite(path, lambda entry: entry.update(stage="translate"))
        assert kind.read(front) is None

    @pytest.mark.parametrize(
        "schema",
        [STORE_SCHEMA_VERSION + 1, STORE_SCHEMA_VERSION - 1,
         str(STORE_SCHEMA_VERSION)],
        ids=["newer", "older", "non-integer"],
    )
    def test_schema_bump_invalidates(self, kind, front, schema):
        """An older entry is stale, a newer one has a layout this
        reader cannot interpret: both miss, and the slot is evicted."""
        path = kind.write(front)
        rewrite(path, lambda entry: entry.update(store_schema=schema))
        assert kind.read(front) is None
        assert (kind.stage, kind.key) not in kind.store_of(front)


class TestCounters:
    def test_hit_miss_store_counters(self, kind, front):
        assert kind.read(front) is None
        kind.write(front)
        assert kind.read(front) is not None
        assert counters(kind, front) == {
            "hit": (1, 1), "miss": (1, 1), "corrupt": (0, 0),
            "store": (1, 1),
        }
        assert kind.store_of(front).counts == {
            kind.stage: {"miss": 1, "store": 1, "hit": 1}
        }


class TestPreviousLayouts:
    """A cache directory written before the store held the payload: a
    top-level ``<key>.json`` payload entry (``cache_schema: 2``) and
    stage entries under ``stages/<stage>/``.  Both are ignored — never
    served — and the compile lands in the current layout."""

    ITEM = SweepItem(name="l2", source=L2_SOURCE, include_io=False)

    def previous_key(self, item: SweepItem) -> str:
        """The whole-payload key the previous layout derived."""
        return sha256_of(
            {
                "cache_schema": 2,
                "source": item.source,
                "scalars": None,
                "pipeline_stages": item.pipeline_stages,
                "include_io": item.include_io,
                "engine": item.engine,
                "unroll": item.unroll,
            }
        )

    def test_previous_cache_dir_yields_the_cold_payload_bytes(self, tmp_path):
        item = self.ITEM
        cold = compile_one(item)
        cache = tmp_path / "cache"
        # stage entries in their previous place (same entry layout)
        compile_staged(
            make_request(item.source, include_io=item.include_io),
            ArtifactStore(cache / "stages"),
        )
        # hash-valid whole-payload entries whose payload is wrong, at the
        # previous key and at the current one: serving either is a misread
        wrong = dict(cold.payload, rate="9/7")
        planted = {}
        for key in (self.previous_key(item), item.cache_key()):
            entry = {
                "cache_schema": 2,
                "key": key,
                "payload": wrong,
                "payload_sha256": sha256_of(wrong),
            }
            path = atomic_write_json(cache / f"{key}.json", entry, key)
            planted[path] = path.read_bytes()
        old_stage_files = {
            path: path.read_bytes() for path in (cache / "stages").rglob("*")
            if path.is_file()
        }

        first = compile_one(item, cache_dir=cache)
        again = compile_one(item, cache_dir=cache)

        assert not first.cache_hit and again.cache_hit
        # nothing under stages/ was read: every stage computed afresh
        assert set(first.stage_outcomes.values()) == {"computed"}
        for result in (first, again):
            assert stable_json(result.payload) == stable_json(cold.payload)
        assert (PAYLOAD_STAGE, item.cache_key()) in ArtifactStore(cache)
        # the previous entries are left as they were
        for path, data in {**planted, **old_stage_files}.items():
            assert path.read_bytes() == data
