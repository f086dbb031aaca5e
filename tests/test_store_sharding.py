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

    def test_undecodable_line_is_skipped_on_load(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put(_digest(1), _record())
        with store.shard_path(_digest(1)).open("ab") as handle:
            handle.write(b'{"digest": "\xff\xfe"}\n')  # not UTF-8
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.stats.skipped == 1
        assert reopened.total_bytes == store.total_bytes


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



def _live_line_bytes(cache_dir: Path) -> int:
    """Bytes of the newest line of every digest across the shard files."""
    newest = {}
    for shard in sorted((cache_dir / "shards").glob("*.jsonl")):
        for line in shard.read_bytes().splitlines(keepends=True):
            try:
                newest[json.loads(line)["digest"]] = len(line)
            except ValueError:
                continue
    return sum(newest.values())


def _shard_file_bytes(cache_dir: Path) -> int:
    return sum(shard.stat().st_size for shard in (cache_dir / "shards").glob("*.jsonl"))


class TestByteAccounting:
    """``total_bytes`` is the bytes the live lines occupy on disk."""

    def _fill(self, cache_dir: Path) -> ResultStore:
        store = ResultStore(cache_dir)
        for i in range(4):
            store.put(_digest(i), _record(payload="p" * (10 * i + 1)))
        # Rewritten with a longer payload: the superseded line stays on disk
        # but is no longer charged.
        store.put(_digest(2), _record(payload="q" * 100))
        return store

    def test_put_charges_the_live_lines_on_disk(self, tmp_path) -> None:
        store = self._fill(tmp_path)
        assert store.total_bytes == _live_line_bytes(tmp_path)
        assert store.total_bytes < _shard_file_bytes(tmp_path)

    def test_reopened_store_reports_the_writers_total(self, tmp_path) -> None:
        written = self._fill(tmp_path).total_bytes
        reopened = ResultStore(tmp_path)
        assert reopened.total_bytes == written
        assert reopened.stats.skipped == 1  # the superseded line

    def test_compacted_total_equals_shard_file_sizes(self, tmp_path) -> None:
        store = self._fill(tmp_path)
        written = store.total_bytes
        assert store.compact() == 1
        assert store.total_bytes == written == _shard_file_bytes(tmp_path)
        assert ResultStore(tmp_path).total_bytes == written

    def test_truncated_tail_is_not_charged(self, tmp_path) -> None:
        store = self._fill(tmp_path)
        with store.shard_path(_digest(1)).open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "' + _digest(1) + '", "truncat')
        reopened = ResultStore(tmp_path)
        assert reopened.total_bytes == store.total_bytes
        assert reopened.get(_digest(1))["metrics"]["payload"] == "p" * 11

    @pytest.mark.parametrize("era", ["store_v3", "store_v4"])
    def test_migrated_fixture_is_charged_its_shard_lines(self, era, tmp_path) -> None:
        shutil.copy(FIXTURES / era / "results.jsonl", tmp_path / "results.jsonl")
        store = ResultStore(tmp_path)
        # The shards hold exactly the re-encoded lines.  (The v3 lines differ
        # in size from them; the v4 lines happen not to.)
        assert store.total_bytes == _shard_file_bytes(tmp_path) == _live_line_bytes(tmp_path)
        assert ResultStore(tmp_path).total_bytes == store.total_bytes

    def test_absorbed_legacy_line_is_charged_its_reencoded_line(self, tmp_path) -> None:
        digest = _digest(9)
        record = dict(_record(payload="legacy"), digest=digest, version=SCHEMA_VERSION)
        # A compact, unsorted legacy line: shorter than the line the store
        # appends for it.
        legacy_line = json.dumps(record, separators=(",", ":")) + "\n"
        (tmp_path / "results.jsonl").write_text(legacy_line)
        store = ResultStore(tmp_path)
        appended = store.shard_path(digest).read_bytes()
        assert appended == (json.dumps(record, sort_keys=True) + "\n").encode()
        assert store.total_bytes == len(appended) != len(legacy_line)
        assert ResultStore(tmp_path).total_bytes == store.total_bytes

    def test_foreign_formatted_line_is_charged_as_on_disk_until_compacted(
        self, tmp_path
    ) -> None:
        digest = _digest(5)
        record = dict(_record(payload="spaced"), digest=digest, version=SCHEMA_VERSION)
        shard = tmp_path / "shards" / f"{shard_of(digest)}.jsonl"
        shard.parent.mkdir(parents=True)
        shard.write_text(json.dumps(record, indent=None, separators=(" , ", " : ")) + "\n")
        store = ResultStore(tmp_path)
        assert store.total_bytes == shard.stat().st_size
        assert store.compact() == 0
        assert store.total_bytes == shard.stat().st_size
        assert shard.read_text() == json.dumps(record, sort_keys=True) + "\n"
