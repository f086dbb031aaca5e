"""Named deterministic random streams.

Every stochastic component of the simulation (node placement, MAC backoff,
query start times, packet-loss injection, ...) draws from its own named
stream.  Streams are derived from a single master seed, so

* two runs with the same master seed are bit-for-bit identical, and
* adding a new consumer of randomness does not perturb the draws seen by
  existing consumers (stream independence), which keeps experiments
  comparable across code revisions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, name)``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash()``, which is salted per process).
    """
    payload = f"{master_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A registry of named :class:`random.Random` streams.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> backoff = streams.get("mac.backoff")
    >>> placement = streams.get("topology.placement")
    >>> 0.0 <= backoff.random() < 1.0
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it if needed."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]

    def fork(self, sub_seed: int) -> "RandomStreams":
        """Create a child registry whose master seed mixes in ``sub_seed``.

        Used by experiment runners to give each replication its own
        independent but reproducible randomness.
        """
        return RandomStreams(derive_seed(self.seed, f"fork:{sub_seed}"))

    def names(self) -> list[str]:
        """Names of all streams that have been requested so far."""
        return sorted(self._streams)
