"""On-disk content-addressed result store, sharded by digest prefix.

Finished runs are appended as JSONL records keyed by the job's content
digest (:attr:`repro.orchestrator.jobs.RunJob.digest`).  Because the key is
derived from the complete job description, a store can be shared freely
between sweeps and invocations: any sweep that needs the same
``(scenario, protocol, workload, seed)`` point gets a cache hit and skips
the simulator entirely.

Layout
------
Records live under ``<cache_dir>/shards/<p>.jsonl`` where ``<p>`` is the
first two hex digits of the digest (256 shards).  Sharding keeps individual
files small (compaction rewrites one shard at a time, not the whole
store).  An in-memory index (digest -> record) is built once at startup;
lookups never touch the disk afterwards.

Line format
-----------
Each line is one record, ``json.dumps(record, sort_keys=True) + "\n"``,
with one exception.  ``record["metrics"]["sleep_intervals"]`` (every sleep
interval of the run, kept in full for the Figure 8 histogram) is most of a
record, and parsing it back from decimal text dominated opening a store.
When that field is a non-empty list whose items are all ``float``, the
line stores it as a string instead: base64 (``binascii``) of the values
packed as little-endian IEEE-754 float64 (``struct`` format ``"<Nd"``).
Loading a current-version line unpacks the string back into the same list
of floats, bit for bit (``-0.0``, subnormals, ``inf`` and NaN payloads
included), so :meth:`ResultStore.get` after a reopen returns exactly the
record :meth:`ResultStore.put` was given.  Any other value (an empty list,
a list holding an ``int``) stays a JSON list.  A string in that field is
the packed form's and cannot be stored, so ``put`` rejects it.  The packed
form exists from schema v6 on; a reader of an older version skips a v6
line as an unknown version (a cache miss) rather than misreading it.  Only
this module knows the packed form: the codec, the executor and the
figures only ever see the list.

Two maintenance behaviours:

* **Migration** -- records written at an older supported schema version
  (v3/v4/v5) are decoded through the version-aware codec
  (:mod:`repro.orchestrator.codec`), re-encoded at the current version,
  and re-keyed under the job's *current* digest, so an old cache keeps its
  warm results across the schema bump.  Migration is persisted on the open
  that performs it: each upgraded record's current line is appended to the
  shard of its new digest, then every shard that held old-version lines is
  rewritten from the index without them (like compaction, the rewrite
  keeps only indexed records).  The next open migrates nothing
  and parses only current lines, and :meth:`ResultStore.compact` never
  sees a record whose line lives only in memory.  A legacy single-file
  ``results.jsonl`` store (the pre-shard layout) is absorbed the same way: its
  records are appended to their shards and the file is retired.
* **Compaction** -- appends are last-write-wins, so a digest written twice
  leaves a superseded line behind.  :meth:`ResultStore.compact` rewrites
  shards keeping only the newest record per digest (atomic tempfile +
  ``os.replace``).

The format stays deliberately simple (one JSON object per line) so a store
survives interrupted processes: a partially written final line is detected
and ignored on load, and everything before it is reused.

Byte accounting
---------------
:attr:`ResultStore.total_bytes` charges each live record the bytes of its
line on disk.  Every line is ASCII, so a write serialises the record once
and uses that string both for the charge and for the append.  Loading
parses each line once and charges its record ``len(line) + 1`` without
re-serialising it.  A record absorbed from a legacy file or upgraded from
an older version is charged the re-encoded line appended to its shard, not
the old line.
"""

from __future__ import annotations

import binascii
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Set, Tuple, Union

from .codec import SCHEMA_VERSION, SUPPORTED_VERSIONS, CodecError

#: Legacy (pre-v5) single-file store name, still recognized and migrated.
LEGACY_STORE_FILENAME = "results.jsonl"
#: Backwards-compatible alias (the pre-shard constant's public name).
STORE_FILENAME = LEGACY_STORE_FILENAME
#: Subdirectory holding the per-prefix shard files.
SHARD_DIR_NAME = "shards"


#: The metrics field a line stores as packed float64 (see "Line format").
_PACKED_FIELD = "sleep_intervals"


def _encode(record: Dict[str, Any]) -> str:
    """The JSONL line stored for ``record``; ASCII, so its length is its bytes.

    ``record`` itself is not modified: a packed field goes into a copy.
    """
    metrics = record.get("metrics")
    if isinstance(metrics, dict):
        values = metrics.get(_PACKED_FIELD)
        if isinstance(values, str):
            raise ValueError(
                f"metrics[{_PACKED_FIELD!r}] is a string, which the store reserves "
                "for its packed float64 form"
            )
        if type(values) is list and values and all(type(v) is float for v in values):
            metrics = dict(metrics)
            # One expression, so each large intermediate is freed as soon
            # as the next one is built.
            metrics[_PACKED_FIELD] = binascii.b2a_base64(
                struct.pack("<%dd" % len(values), *values), newline=False
            ).decode("ascii")
            record = dict(record, metrics=metrics)
    return json.dumps(record, sort_keys=True) + "\n"


def _unpack(record: Dict[str, Any]) -> None:
    """Turn a current-version line's packed field back into its list, in place.

    Raises ``ValueError`` or ``struct.error`` if the string is not packed
    float64.
    """
    metrics = record.get("metrics")
    if isinstance(metrics, dict):
        packed = metrics.get(_PACKED_FIELD)
        if isinstance(packed, str):
            raw = binascii.a2b_base64(packed)
            metrics[_PACKED_FIELD] = list(struct.unpack("<%dd" % (len(raw) // 8), raw))


def shard_of(digest: str) -> str:
    """The shard prefix (first two hex digits) a digest maps to."""
    return digest[:2]


@dataclass
class StoreStats:
    """Bookkeeping from the last load/compaction activity."""

    #: Records currently indexed.
    records: int = 0
    #: Records migrated from an older schema version at load time.
    migrated: int = 0
    #: Superseded or unreadable lines skipped at load time.
    skipped: int = 0
    #: Superseded lines removed by the last :meth:`ResultStore.compact`.
    compacted: int = 0
    #: Shard files currently present.
    shards: int = 0


@dataclass
class _IndexEntry:
    """One indexed record plus the bytes its newest line occupies on disk."""

    record: Dict[str, Any]
    line_bytes: int = 0


class ResultStore:
    """A sharded digest -> record mapping with JSONL persistence.

    Parameters
    ----------
    cache_dir:
        Directory holding the store (created if absent).
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise NotADirectoryError(
                f"cache dir {str(self.cache_dir)!r} exists and is not a directory"
            )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.shard_dir = self.cache_dir / SHARD_DIR_NAME
        self.shard_dir.mkdir(exist_ok=True)
        self.legacy_path = self.cache_dir / LEGACY_STORE_FILENAME
        self.stats = StoreStats()
        #: Insertion-ordered index.
        self._entries: Dict[str, _IndexEntry] = {}
        self._total_bytes = 0
        self._load()

    # -- loading ------------------------------------------------------------

    def _iter_lines(self, path: Path) -> Iterator[Tuple[Any, int]]:
        """Each parsed record of ``path`` with the bytes its line occupies."""
        with path.open("rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    # A run interrupted mid-append leaves a truncated last
                    # line; everything before it is still valid.
                    self.stats.skipped += 1
                    continue
                yield record, len(line) + 1

    def _adopt(self, record: Any, line_bytes: int) -> Optional[str]:
        """Index one parsed record; returns its digest or ``None`` if bad."""
        if not isinstance(record, dict):
            self.stats.skipped += 1
            return None
        version = record.get("version")
        if version == SCHEMA_VERSION:
            digest = record.get("digest")
            if not digest:
                self.stats.skipped += 1
                return None
            try:
                _unpack(record)
            except (ValueError, struct.error):
                self.stats.skipped += 1
                return None
        elif version in SUPPORTED_VERSIONS:
            record = self._upgrade(record, int(version))
            if record is None:
                return None
            digest = record["digest"]
            self.stats.migrated += 1
        else:
            self.stats.skipped += 1
            return None
        existing = self._entries.get(digest)
        if existing is not None:
            # Last write wins; the superseded line stays on disk until the
            # next compaction of its shard.
            self.stats.skipped += 1
            existing.record = record
            self._charge(existing, line_bytes)
        else:
            self._entries[digest] = _IndexEntry(record, line_bytes)
            self._total_bytes += line_bytes
        return digest

    def _charge(self, entry: _IndexEntry, line_bytes: int) -> None:
        """Charge ``entry`` ``line_bytes``, replacing its previous charge."""
        self._total_bytes += line_bytes - entry.line_bytes
        entry.line_bytes = line_bytes

    def _upgrade(self, record: Dict[str, Any], version: int) -> Optional[Dict[str, Any]]:
        """Re-encode a v3/v4/v5 record at the current schema version.

        The job payload is decoded through the version-aware codec and
        re-digested, so the upgraded record is indistinguishable from one
        written natively at the current version -- in particular, current
        sweeps hit it under the current digest.
        """
        # Imported lazily: jobs.py imports this module's sibling codec, and
        # the upgrade path is the only place the store needs the job codec.
        from .jobs import RunJob, metrics_from_dict, metrics_to_dict

        try:
            job = RunJob.from_dict(record["job"], version=version)
            metrics = metrics_from_dict(record["metrics"], version=version)
        except (KeyError, TypeError, ValueError, CodecError):
            self.stats.skipped += 1
            return None
        return {
            "job": job.to_dict(),
            "metrics": metrics_to_dict(metrics),
            "extras": dict(record.get("extras", {})),
            "elapsed": float(record.get("elapsed", 0.0)),
            "digest": job.digest,
            "version": SCHEMA_VERSION,
        }

    def _load(self) -> None:
        # Digests whose current line must be appended to their shard (every
        # record absorbed from a legacy file or upgraded inside a shard),
        # and the shards that held old-version lines.
        to_append: Dict[str, None] = {}
        stale_shards: Set[str] = set()
        if self.legacy_path.exists():
            for record, line_bytes in self._iter_lines(self.legacy_path):
                digest = self._adopt(record, line_bytes)
                if digest is not None:
                    to_append[digest] = None
        absorbed = bool(to_append)
        for shard_path in sorted(self.shard_dir.glob("*.jsonl")):
            for record, line_bytes in self._iter_lines(shard_path):
                old = isinstance(record, dict) and record.get("version") != SCHEMA_VERSION
                digest = self._adopt(record, line_bytes)
                if digest is None:
                    continue
                if old:
                    to_append[digest] = None
                    stale_shards.add(shard_path.stem)
                else:
                    # The newest record's current line is already in place.
                    to_append.pop(digest, None)
        # Persist what this open absorbed or upgraded: append before
        # retiring the old lines, so a crash in between leaves duplicates,
        # not losses (the next open or compaction cleans up).
        for digest in to_append:
            entry = self._entries[digest]
            line = _encode(entry.record)
            self._append_line(digest, line)
            self._charge(entry, len(line))
        for prefix in sorted(stale_shards):
            self._rewrite_shard(prefix)
        if absorbed:
            self.legacy_path.unlink()
        self.stats.records = len(self._entries)
        self.stats.shards = sum(1 for _ in self.shard_dir.glob("*.jsonl"))

    # -- the mapping surface ------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored record for ``digest``, or ``None`` on a cache miss."""
        entry = self._entries.get(digest)
        return entry.record if entry is not None else None

    def digests(self) -> Iterator[str]:
        """All digests currently in the store (insertion order)."""
        return iter(list(self._entries))

    @property
    def total_bytes(self) -> int:
        """Bytes the live (newest-per-digest) records occupy."""
        return self._total_bytes

    def shard_path(self, digest: str) -> Path:
        """The shard file a digest's records live in."""
        return self.shard_dir / f"{shard_of(digest)}.jsonl"

    def _append_line(self, digest: str, line: str) -> None:
        path = self.shard_path(digest)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def put(self, digest: str, record: Dict[str, Any]) -> None:
        """Persist ``record`` under ``digest`` (appends one JSONL line)."""
        stored = dict(record)
        stored["digest"] = digest
        stored["version"] = SCHEMA_VERSION
        line = _encode(stored)
        # Write before indexing: a failed append (disk full, no permission)
        # must leave the index describing what is on disk.
        self._append_line(digest, line)
        existing = self._entries.pop(digest, None)
        if existing is not None:
            self._total_bytes -= existing.line_bytes
        self._entries[digest] = _IndexEntry(stored, len(line))
        self._total_bytes += len(line)
        self.stats.records = len(self._entries)

    # -- maintenance --------------------------------------------------------

    def _rewrite_shard(self, prefix: str) -> int:
        """Rewrite one shard from the index; returns lines dropped.

        Writes to a tempfile in the shard directory and ``os.replace``s it
        over the shard, so readers never observe a half-written file.
        """
        path = self.shard_dir / f"{prefix}.jsonl"
        keep = {
            digest: _encode(entry.record)
            for digest, entry in self._entries.items()
            if shard_of(digest) == prefix
        }
        on_disk = 0
        if path.exists():
            with path.open("rb") as handle:
                on_disk = sum(1 for line in handle if line.strip())
        if not keep:
            if path.exists():
                path.unlink()
            return on_disk
        import tempfile

        fd, tmp_name = tempfile.mkstemp(dir=self.shard_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.writelines(keep.values())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        # Charge each record its rewritten line, which a hand-edited or
        # foreign-formatted original need not have matched.
        for digest, line in keep.items():
            self._charge(self._entries[digest], len(line))
        return on_disk - len(keep)

    def compact(self) -> int:
        """Drop superseded lines from every shard; returns lines removed.

        The newest record of every digest is always retained -- compaction
        only removes lines the index has already superseded (older writes of
        the same digest, unreadable tails).
        """
        removed = 0
        for shard_path in sorted(self.shard_dir.glob("*.jsonl")):
            removed += max(0, self._rewrite_shard(shard_path.stem))
        self.stats.compacted += removed
        self.stats.shards = sum(1 for _ in self.shard_dir.glob("*.jsonl"))
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.cache_dir)!r}, {len(self)} records)"


def open_store(
    store: Union[None, str, Path, "ResultStore"],
) -> Optional["ResultStore"]:
    """Coerce a cache-dir path (or an already-open store) to a store.

    ``None`` stays ``None`` -- callers treat that as "caching disabled".
    """
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
