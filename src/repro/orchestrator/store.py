"""On-disk content-addressed result store, sharded by digest prefix.

Finished runs are appended as JSONL records keyed by the job's content
digest (:attr:`repro.orchestrator.jobs.RunJob.digest`).  Because the key is
derived from the complete job description, a store can be shared freely
between sweeps and invocations: any sweep that needs the same
``(scenario, protocol, workload, seed)`` point gets a cache hit and skips
the simulator entirely.

Layout
------
Records live under ``<cache_dir>/v<N>/shards/<p>.jsonl`` where ``<N>`` is
:data:`~repro.orchestrator.codec.SCHEMA_VERSION` and ``<p>`` is the first
two hex digits of the digest (256 shards), which keeps individual files
small.  A schema bump therefore opens an empty directory: the lines of
older versions stay on disk, but are never read again.  An in-memory index
(digest -> record) is built once at startup; lookups never touch the disk
afterwards.

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
this module knows the packed form: the codec, the sweep and the
figures only ever see the list.

A cache, not an archive
-----------------------
A line whose ``version`` is not :data:`~repro.orchestrator.codec.SCHEMA_VERSION`
(one copied into the wrong version's directory) is skipped on load and
counted in :attr:`StoreStats.skipped`: its job is a cache miss, runs again,
and appends a current line.  Nothing is decoded
at an older version, so a field a later schema adds can never be served
as its empty default.  Opening a store only reads; every write is an
append by :meth:`ResultStore.put`.  Appends are last-write-wins, so a
digest written twice leaves its superseded line on disk, where loading
skips it.

The format stays deliberately simple (one JSON object per line) so a store
survives interrupted processes: a partially written final line is detected
and ignored on load, and everything before it is reused.

Byte accounting
---------------
:attr:`ResultStore.total_bytes` charges each live record the bytes of its
line on disk.  Every line is ASCII, so a write serialises the record once
and uses that string both for the charge and for the append.  Loading
parses each line once and charges its record ``len(line) + 1`` without
re-serialising it.  A superseded line is not charged.
"""

from __future__ import annotations

import binascii
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from .codec import SCHEMA_VERSION

#: Subdirectory of a version's directory holding the per-prefix shard files.
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
    """Bookkeeping from loading the store."""

    #: Records currently indexed.
    records: int = 0
    #: Superseded, unreadable or other-version lines skipped at load time.
    skipped: int = 0
    #: Shard files present at load time.
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
        self.shard_dir = self.cache_dir / f"v{SCHEMA_VERSION}" / SHARD_DIR_NAME
        self.shard_dir.mkdir(parents=True, exist_ok=True)
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

    def _adopt(self, record: Any, line_bytes: int) -> None:
        """Index one parsed line's record, or count the line as skipped."""
        if (
            not isinstance(record, dict)
            or record.get("version") != SCHEMA_VERSION
            or not record.get("digest")
        ):
            self.stats.skipped += 1
            return
        try:
            _unpack(record)
        except (ValueError, struct.error):
            self.stats.skipped += 1
            return
        digest = record["digest"]
        existing = self._entries.get(digest)
        if existing is not None:
            # Last write wins; the superseded line stays on disk uncharged.
            self.stats.skipped += 1
            self._total_bytes += line_bytes - existing.line_bytes
            existing.record = record
            existing.line_bytes = line_bytes
        else:
            self._entries[digest] = _IndexEntry(record, line_bytes)
            self._total_bytes += line_bytes

    def _load(self) -> None:
        shard_paths = sorted(self.shard_dir.glob("*.jsonl"))
        for shard_path in shard_paths:
            for record, line_bytes in self._iter_lines(shard_path):
                self._adopt(record, line_bytes)
        self.stats.records = len(self._entries)
        self.stats.shards = len(shard_paths)

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
