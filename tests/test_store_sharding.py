"""The sharded result store: layout, line format, migration, compaction."""

import binascii
import errno
import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.config import smoke_scale
from repro.experiments.scenarios import rate_sweep_workload
from repro.orchestrator.codec import SCHEMA_VERSION
from repro.orchestrator.executor import SweepExecutor
from repro.orchestrator.jobs import RunJob, metrics_from_dict, metrics_to_dict
from repro.orchestrator.store import ResultStore, shard_of

FIXTURES = Path(__file__).parent / "fixtures"

#: The current-schema digests of the two jobs baked into the committed
#: v3/v4/v5 store fixtures -- RunJob(smoke_scale(), protocol, seed,
#: rate_sweep_workload(2.0)) with seed 1001 for DTS-SS and 1002 for PSM.
#: The job digest embeds the schema version, so these move with every bump.
FIXTURE_DIGESTS = {
    "DTS-SS": "29bca8a4853bc2e0855c8b745d4a6e7c9c4355bd17bb508443709b528715ea44",
    "PSM": "188fb4cca610148656568f65e3b505aebea874d742c7620c83077223f74879d3",
}
FIXTURE_SEEDS = {"DTS-SS": 1001, "PSM": 1002}
#: v3/v4 fixtures are single-file legacy stores; v5 is a sharded store
#: written by the v5 code.
ERAS = ["store_v3", "store_v4", "store_v5"]


def _copy_fixture(era: str, cache_dir: Path) -> None:
    shutil.copytree(FIXTURES / era, cache_dir, dirs_exist_ok=True)


def _fixture_lines(era: str) -> list:
    """The parsed records of an old-schema fixture, in file order."""
    paths = sorted((FIXTURES / era).glob("**/*.jsonl"))
    return [json.loads(line) for path in paths for line in path.read_text().splitlines()]


def _fixture_job(protocol: str) -> RunJob:
    return RunJob(
        scenario=smoke_scale(),
        protocol=protocol,
        seed=FIXTURE_SEEDS[protocol],
        workload=rate_sweep_workload(2.0),
    )


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

    @pytest.mark.parametrize("era", ERAS)
    def test_committed_old_schema_fixture_migrates(self, era, tmp_path) -> None:
        _copy_fixture(era, tmp_path)
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
        job = _fixture_job("DTS-SS")
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


def _shard_versions(cache_dir: Path) -> list:
    """The ``version`` of every line across the shard files."""
    return [
        json.loads(line)["version"]
        for shard in sorted((cache_dir / "shards").glob("*.jsonl"))
        for line in shard.read_text().splitlines()
    ]


class TestMigrationPersistence:
    """An open that upgrades old-version lines in a shard writes the result."""

    def _seed_shards(self, era: str, cache_dir: Path) -> None:
        # Every old line goes in the shard of its own (old) digest, which is
        # where a store of that version keeps it.
        shard_dir = cache_dir / "shards"
        shard_dir.mkdir(parents=True, exist_ok=True)
        for record in _fixture_lines(era):
            with (shard_dir / f"{shard_of(record['digest'])}.jsonl").open("a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    @pytest.mark.parametrize("era", ERAS)
    def test_compact_keeps_records_migration_re_keyed(self, era, tmp_path) -> None:
        self._seed_shards(era, tmp_path)
        store = ResultStore(tmp_path)
        assert len(store) == 2 and store.stats.migrated == 2
        store.compact()
        reopened = ResultStore(tmp_path)
        assert set(reopened.digests()) == set(FIXTURE_DIGESTS.values())
        assert reopened.stats.migrated == 0

    @pytest.mark.parametrize("era", ERAS)
    def test_next_open_parses_only_current_lines(self, era, tmp_path) -> None:
        self._seed_shards(era, tmp_path)
        store = ResultStore(tmp_path)
        assert _shard_versions(tmp_path) == [SCHEMA_VERSION, SCHEMA_VERSION]
        assert {shard.stem for shard in (tmp_path / "shards").glob("*.jsonl")} == {
            shard_of(digest) for digest in FIXTURE_DIGESTS.values()
        }
        assert store.total_bytes == _shard_file_bytes(tmp_path)
        reopened = ResultStore(tmp_path)
        assert reopened.stats.migrated == reopened.stats.skipped == 0
        assert reopened.total_bytes == store.total_bytes

    def test_interrupted_migration_loses_nothing(self, tmp_path) -> None:
        # A crash after the upgraded lines were appended but before the old
        # shards were rewritten leaves both on disk.
        _copy_fixture("store_v5", tmp_path)
        ResultStore(tmp_path)
        _copy_fixture("store_v5", tmp_path)
        store = ResultStore(tmp_path)
        assert set(store.digests()) == set(FIXTURE_DIGESTS.values())
        assert set(_shard_versions(tmp_path)) == {SCHEMA_VERSION}
        store.compact()
        reopened = ResultStore(tmp_path)
        assert set(reopened.digests()) == set(FIXTURE_DIGESTS.values())
        assert reopened.stats.migrated == reopened.stats.skipped == 0
        assert reopened.total_bytes == _shard_file_bytes(tmp_path)


class TestV5Fixture:
    """A sharded store written by the v5 code opens warm at the current version."""

    def test_current_sweep_is_all_cache_hits(self, tmp_path) -> None:
        _copy_fixture("store_v5", tmp_path)
        jobs = [_fixture_job(protocol) for protocol in FIXTURE_DIGESTS]
        executor = SweepExecutor(store=ResultStore(tmp_path))
        results = executor.run(jobs)
        assert executor.last_executed == 0
        assert executor.last_cached == 2
        assert all(result.cached for result in results)

    @pytest.mark.parametrize("opens", [1, 2], ids=["migrating-open", "reopen"])
    def test_decoded_metrics_equal_the_fixture_bit_for_bit(self, opens, tmp_path) -> None:
        _copy_fixture("store_v5", tmp_path)
        for _ in range(opens):
            store = ResultStore(tmp_path)
        for old in _fixture_lines("store_v5"):
            assert old["version"] == 5
            expected = metrics_from_dict(old["metrics"], version=5)
            record = store.get(FIXTURE_DIGESTS[old["job"]["protocol"]])
            decoded = metrics_from_dict(record["metrics"])
            assert json.dumps(metrics_to_dict(decoded), sort_keys=True) == json.dumps(
                metrics_to_dict(expected), sort_keys=True
            )
            assert _f64(decoded.sleep_intervals) == _f64(expected.sleep_intervals)
            assert len(decoded.sleep_intervals) > 0

    def test_second_open_migrates_nothing(self, tmp_path) -> None:
        _copy_fixture("store_v5", tmp_path)
        first = ResultStore(tmp_path)
        assert first.stats.migrated == 2
        reopened = ResultStore(tmp_path)
        assert reopened.stats.migrated == 0
        assert reopened.total_bytes == first.total_bytes == _shard_file_bytes(tmp_path)
        assert reopened.total_bytes < sum(
            shard.stat().st_size for shard in (FIXTURES / "store_v5" / "shards").glob("*.jsonl")
        )



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

    @pytest.mark.parametrize("digest", [_digest(2), _digest(7)], ids=["overwrite", "new"])
    def test_failed_append_leaves_the_store_unchanged(
        self, digest, tmp_path, monkeypatch
    ) -> None:
        store = self._fill(tmp_path)
        before = {d: store.get(d) for d in store.digests()}
        written = store.total_bytes

        def disk_full(digest: str, line: str) -> None:
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store, "_append_line", disk_full)
        with pytest.raises(OSError):
            store.put(digest, _record(payload="lost"))
        assert {d: store.get(d) for d in store.digests()} == before
        assert len(store) == len(before) == store.stats.records
        assert store.get(_digest(2))["metrics"]["payload"] == "q" * 100
        assert store.total_bytes == written == _live_line_bytes(tmp_path)

    @pytest.mark.parametrize("era", ERAS)
    def test_migrated_fixture_is_charged_its_shard_lines(self, era, tmp_path) -> None:
        _copy_fixture(era, tmp_path)
        store = ResultStore(tmp_path)
        # The shards hold exactly the re-encoded lines, which are shorter
        # than the old ones: sleep intervals are packed from v6 on.
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


def _f64(values) -> bytes:
    """The little-endian float64 bytes of ``values`` (bitwise comparison)."""
    return struct.pack("<%dd" % len(values), *values)


def _metrics_record(intervals) -> dict:
    return {
        "metrics": {"protocol": "DTS-SS", "sleep_intervals": intervals},
        "extras": {},
        "elapsed": 0.0,
    }


def _stored_field(store: ResultStore, digest: str):
    """The raw ``sleep_intervals`` value on the digest's (only) line."""
    line = store.shard_path(digest).read_text().splitlines()[-1]
    return json.loads(line)["metrics"]["sleep_intervals"]


class TestPackedSleepIntervals:
    """Sleep intervals cross the disk as packed float64, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50))
    @example([-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan])
    @example([])
    def test_round_trip_is_bitwise_exact(self, intervals) -> None:
        record = _metrics_record(intervals)
        before = json.dumps(record, sort_keys=True)
        with tempfile.TemporaryDirectory() as cache_dir:
            ResultStore(cache_dir).put(_digest(1), record)
            assert json.dumps(record, sort_keys=True) == before  # caller's dict untouched
            back = ResultStore(cache_dir).get(_digest(1))
        values = back["metrics"]["sleep_intervals"]
        assert type(values) is list
        assert all(type(value) is float for value in values)
        assert _f64(values) == _f64(intervals)
        assert json.dumps(back, sort_keys=True) == json.dumps(
            dict(record, digest=_digest(1), version=SCHEMA_VERSION), sort_keys=True
        )

    def test_wire_form_is_base64_little_endian_float64(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put(_digest(1), _metrics_record([1.0, -2.5]))
        expected = binascii.b2a_base64(bytes.fromhex("000000000000f03f00000000000004c0"))
        assert _stored_field(store, _digest(1)) == expected.decode("ascii").strip()
        assert store.get(_digest(1))["metrics"]["sleep_intervals"] == [1.0, -2.5]

    @pytest.mark.parametrize("intervals", [[], [0.5, 2, 1.25]], ids=["empty", "holds-an-int"])
    def test_ineligible_list_stays_a_json_list(self, intervals, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put(_digest(1), _metrics_record(intervals))
        assert _stored_field(store, _digest(1)) == intervals
        values = ResultStore(tmp_path).get(_digest(1))["metrics"]["sleep_intervals"]
        assert values == intervals
        assert [type(value) for value in values] == [type(value) for value in intervals]

    def test_string_field_is_rejected(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="packed"):
            store.put(_digest(1), _metrics_record("AAAAAAAA8D8="))
        assert len(store) == 0
        assert not store.shard_path(_digest(1)).exists()

    @pytest.mark.parametrize("packed", ["AAAAAAAA8D", "AAAA", "not base64 \u00e9"])
    def test_corrupt_packed_field_skips_the_line(self, packed, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put(_digest(1), _metrics_record([1.0]))
        record = dict(_metrics_record(packed), digest=_digest(2), version=SCHEMA_VERSION)
        with store.shard_path(_digest(2)).open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        reopened = ResultStore(tmp_path)
        assert list(reopened.digests()) == [_digest(1)]
        assert reopened.stats.skipped == 1

    def test_non_object_line_is_skipped(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put(_digest(1), _metrics_record([1.0]))
        with store.shard_path(_digest(1)).open("a") as handle:
            handle.write("[1, 2]\n")
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.stats.skipped == 1
