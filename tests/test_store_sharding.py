"""The sharded result store: layout, line format, and other-version lines as misses."""

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
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.orchestrator.codec import SCHEMA_VERSION, CodecError
from repro.orchestrator.jobs import RunJob
import repro.orchestrator.store as store_module
from repro.orchestrator.store import ResultStore, shard_of

#: A sharded store written by the v5 code: one record each for the jobs
#: RunJob(smoke_scale(), protocol, seed, rate_sweep_workload(2.0)) with
#: seed 1001 for DTS-SS and 1002 for PSM.  Its layout predates the
#: per-version directories: the shard files sit in ``shards/`` at the top.
STORE_V5 = Path(__file__).parent / "fixtures" / "store_v5"
FIXTURE_SEEDS = {"DTS-SS": 1001, "PSM": 1002}


def _shards(cache_dir: Path) -> Path:
    """The current schema version's shard directory under ``cache_dir``."""
    return cache_dir / f"v{SCHEMA_VERSION}" / "shards"


def _misplace_v5_lines(cache_dir: Path) -> None:
    """Copies the v5 fixture's shard files into the current version's directory."""
    shutil.copytree(STORE_V5 / "shards", _shards(cache_dir))


def _shard_bytes(shard_dir: Path) -> dict:
    """Every shard file's name and contents."""
    return {shard.name: shard.read_bytes() for shard in shard_dir.iterdir()}


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
        shard = _shards(tmp_path) / "ab.jsonl"
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


class TestOlderSchemaVersion:
    """Each schema version has a directory of its own; a line from another
    version that is found in it anyway is a cache miss; opening never writes."""

    def test_a_bumped_schema_opens_an_empty_directory(self, tmp_path, monkeypatch) -> None:
        ResultStore(tmp_path).put(_digest(1), _record())
        monkeypatch.setattr(store_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 0
        assert reopened.stats.skipped == 0
        assert reopened.shard_dir == tmp_path / f"v{SCHEMA_VERSION + 1}" / "shards"
        assert _shard_bytes(_shards(tmp_path))  # the older line stays on disk

    def test_the_unversioned_layout_is_never_read(self, tmp_path) -> None:
        shutil.copytree(STORE_V5, tmp_path, dirs_exist_ok=True)
        before = _shard_bytes(tmp_path / "shards")
        store = ResultStore(tmp_path)
        assert len(store) == 0
        assert store.stats.skipped == 0
        assert _shard_bytes(tmp_path / "shards") == before

    def test_open_skips_every_line_and_writes_nothing(self, tmp_path) -> None:
        _misplace_v5_lines(tmp_path)
        before = _shard_bytes(_shards(tmp_path))
        assert len(before) == 2
        store = ResultStore(tmp_path)
        assert len(store) == 0
        assert store.stats.skipped == 2
        assert store.total_bytes == 0
        assert _shard_bytes(_shards(tmp_path)) == before

    def test_sweep_reruns_the_jobs_once_then_replays_warm(self, tmp_path) -> None:
        _misplace_v5_lines(tmp_path)
        # The fixture's protocols and workload, at the scenario's own seed.
        specs = [
            ExperimentSpec(smoke_scale(), protocol, workload=rate_sweep_workload(2.0), num_runs=1)
            for protocol in FIXTURE_SEEDS
        ]
        cold = run_sweep(specs, store=ResultStore(tmp_path))
        assert [result.runs[0].cached for result in cold] == [False, False]
        warm = run_sweep(specs, store=ResultStore(tmp_path))
        assert [result.runs[0].cached for result in warm] == [True, True]

    def test_older_job_does_not_decode(self) -> None:
        for shard in sorted((STORE_V5 / "shards").glob("*.jsonl")):
            record = json.loads(shard.read_text())
            assert record["version"] == record["job"]["version"] == 5
            with pytest.raises(CodecError, match="v5"):
                RunJob.from_dict(record["job"])


def _live_line_bytes(cache_dir: Path) -> int:
    """Bytes of the newest line of every digest across the shard files."""
    newest = {}
    for shard in sorted(_shards(cache_dir).glob("*.jsonl")):
        for line in shard.read_bytes().splitlines(keepends=True):
            try:
                newest[json.loads(line)["digest"]] = len(line)
            except ValueError:
                continue
    return sum(newest.values())


def _shard_file_bytes(cache_dir: Path) -> int:
    return sum(shard.stat().st_size for shard in _shards(cache_dir).glob("*.jsonl"))


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

    def test_last_write_wins_on_load_and_is_charged_its_line(self, tmp_path) -> None:
        digest = _digest(5)
        shard = _shards(tmp_path) / f"{shard_of(digest)}.jsonl"
        shard.parent.mkdir(parents=True)
        old = dict(_record(payload="old" * 20), digest=digest, version=SCHEMA_VERSION)
        new = dict(_record(payload="new"), digest=digest, version=SCHEMA_VERSION)
        # The superseded line is foreign-formatted and longer: only the
        # newest line's own bytes are charged.
        new_line = json.dumps(new, sort_keys=True) + "\n"
        shard.write_text(json.dumps(old, separators=(" , ", " : ")) + "\n" + new_line)
        store = ResultStore(tmp_path)
        assert store.get(digest)["metrics"]["payload"] == "new"
        assert store.stats.skipped == 1
        assert store.total_bytes == len(new_line) < shard.stat().st_size


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
