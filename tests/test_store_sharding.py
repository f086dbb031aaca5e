"""The sharded result store: layout, legacy migration, compaction."""

import json
import shutil
from pathlib import Path

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.scenarios import rate_sweep_workload
from repro.orchestrator.codec import SCHEMA_VERSION
from repro.orchestrator.executor import SweepExecutor
from repro.orchestrator.jobs import RunJob
from repro.orchestrator.store import ResultStore, shard_of

FIXTURES = Path(__file__).parent / "fixtures"

#: The current-schema digests of the two jobs baked into the committed v3/v4
#: store fixtures -- RunJob(smoke_scale(), protocol, seed, rate_sweep_workload(2.0)).
FIXTURE_DIGESTS = {
    "DTS-SS": "39f02bb383f7f0e5c4ed00402704e55f43f976291a4ddfaa8e3b9df29dc7c246",
    "PSM": "040c687cc63d9ec382729e8f93d097d4022094742b0444c4c23973ce77c62225",
}


def _record(payload: str = "x") -> dict:
    return {"metrics": {"payload": payload}, "extras": {}, "elapsed": 0.0}


def _digest(i: int) -> str:
    # Distinct two-hex prefixes so each record lands in its own shard.
    return f"{i:02x}" + "0" * 62


class TestShardLayout:
    def test_put_lands_in_prefix_shard(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        digest = "ab" + "c" * 62
        store.put(digest, _record())
        shard = tmp_path / "shards" / "ab.jsonl"
        assert shard.exists()
        assert store.shard_path(digest) == shard
        assert shard_of(digest) == "ab"
        lines = shard.read_text().strip().splitlines()
        assert len(lines) == 1
        stored = json.loads(lines[0])
        assert stored["digest"] == digest
        assert stored["version"] == SCHEMA_VERSION

    def test_reload_restores_index(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        for i in range(5):
            store.put(_digest(i), _record(payload=str(i)))
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 5
        assert reopened.stats.shards == 5
        for i in range(5):
            assert reopened.get(_digest(i))["metrics"]["payload"] == str(i)

    def test_truncated_tail_is_skipped_on_load(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put(_digest(1), _record())
        shard = store.shard_path(_digest(1))
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "truncat')  # interrupted append
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.stats.skipped == 1


class TestLegacyMigration:
    def test_current_version_single_file_is_absorbed(self, tmp_path) -> None:
        digest = _digest(7)
        record = dict(_record(payload="legacy"), digest=digest, version=SCHEMA_VERSION)
        (tmp_path / "results.jsonl").write_text(
            json.dumps(record, sort_keys=True) + "\n"
        )
        store = ResultStore(tmp_path)
        assert digest in store
        assert not (tmp_path / "results.jsonl").exists()
        assert store.shard_path(digest).exists()
        # Stable across a second open: no legacy file left to re-migrate.
        reopened = ResultStore(tmp_path)
        assert reopened.get(digest)["metrics"]["payload"] == "legacy"
        assert reopened.stats.migrated == 0

    @pytest.mark.parametrize("era", ["store_v3", "store_v4"])
    def test_committed_old_schema_fixture_migrates(self, era, tmp_path) -> None:
        shutil.copy(FIXTURES / era / "results.jsonl", tmp_path / "results.jsonl")
        store = ResultStore(tmp_path)
        assert store.stats.migrated == 2
        assert not (tmp_path / "results.jsonl").exists()
        for protocol, digest in FIXTURE_DIGESTS.items():
            record = store.get(digest)
            assert record is not None, f"{era} record for {protocol} not re-keyed"
            assert record["version"] == SCHEMA_VERSION
            assert record["job"]["protocol"] == protocol
        # The migrated layout must be stable: reopening touches nothing.
        reopened = ResultStore(tmp_path)
        assert reopened.stats.migrated == 0
        assert set(FIXTURE_DIGESTS.values()) <= set(reopened.digests())

    def test_migrated_fixture_is_a_cache_hit_for_current_jobs(self, tmp_path) -> None:
        """The acceptance bar: a v3-era store warms a current-schema sweep."""
        shutil.copy(
            FIXTURES / "store_v3" / "results.jsonl", tmp_path / "results.jsonl"
        )
        store = ResultStore(tmp_path)
        job = RunJob(
            scenario=smoke_scale(),
            protocol="DTS-SS",
            seed=1001,
            workload=rate_sweep_workload(2.0),
        )
        assert job.digest == FIXTURE_DIGESTS["DTS-SS"]
        executor = SweepExecutor(store=store)
        results = executor.run([job])
        assert executor.last_executed == 0
        assert executor.last_cached == 1
        assert results[0].cached


class TestCompaction:
    def test_compact_drops_superseded_lines_keeps_newest(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        digest = _digest(3)
        store.put(digest, _record(payload="old"))
        store.put(digest, _record(payload="new"))
        shard = store.shard_path(digest)
        assert len(shard.read_text().strip().splitlines()) == 2
        removed = store.compact()
        assert removed == 1
        lines = shard.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["metrics"]["payload"] == "new"
        assert store.get(digest)["metrics"]["payload"] == "new"
        assert store.stats.compacted == 1

    def test_compact_is_idempotent(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put(_digest(1), _record())
        store.put(_digest(1), _record(payload="newest"))
        assert store.compact() == 1
        assert store.compact() == 0
        assert store.get(_digest(1))["metrics"]["payload"] == "newest"

