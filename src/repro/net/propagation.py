"""Pluggable propagation/reception models for the wireless channel.

The paper evaluates ESSAT on an idealised unit-disk channel: every node
within ``comm_range`` hears every frame, and any overlap corrupts both
frames at a shared receiver.  Real sensor deployments face none of those
absolutes -- links fade behind obstacles, a strong frame survives a weak
interferer, and loss arrives in bursts.  This module makes the reception
physics a *strategy object* consulted by
:class:`~repro.net.channel.WirelessChannel` at its two decision points:

* **audibility** -- which of the sender's disk neighbours hear a starting
  frame at all (and therefore enter the per-node active-transmission index
  that carrier sense and interference sums read), and
* **collision resolution** -- what happens at a receiver already locked
  onto another frame when a new one starts.

Three models ship:

``unit-disk`` (:class:`UnitDiskPropagation`, the default)
    Exactly the paper's channel.  The channel keeps a dedicated fast path
    for this model, so the default configuration is bit-for-bit identical
    to (and as fast as) the pre-strategy channel -- the hot-path golden
    snapshots pin this.

``shadowing`` (:class:`LogDistanceShadowing`)
    Log-distance path loss with log-normal shadowing.  Link budgets are
    expressed as a *fade margin* relative to the receiver sensitivity,
    calibrated so that with zero shadowing a link at exactly ``comm_range``
    sits at the sensitivity threshold: ``margin_dB(a, b) = 10 n
    log10(comm_range / d(a, b)) + X_{a,b}`` with ``X ~ N(0, sigma_dB)``
    drawn once per link and cached (a static shadowing field).  A frame is
    audible only where its margin is non-negative, so close links stay
    reliable while range-edge links fade out -- the classic transitional
    region.  With ``sigma_db=0`` the model degrades exactly to the unit
    disk.  Shadowing never *extends* coverage beyond ``comm_range``:
    audible sets stay subsets of the disk neighbours, which is what keeps
    the O(1) per-node transmission index (and its cost) intact.

``sinr`` (:class:`SinrCapture`)
    The shadowing link budget plus SINR-based reception with capture.  At a
    locked receiver, a new overlapping frame no longer corrupts
    unconditionally; instead the locked frame survives when its signal
    clears the sum of every other audible frame plus the noise floor by
    ``capture_db`` (and, failing that, the *new* frame may capture the
    receiver mid-collision the same way).  Only when neither frame clears
    the threshold does the all-or-nothing corruption of the unit disk
    apply.  Interference sums are evaluated over the channel's per-node
    active-transmission index, so capture costs one pass over the handful
    of frames audible at that receiver and nothing on the default path.

Model selection travels with the scenario as a serializable
:class:`PropagationSpec` (see :class:`~repro.net.spec.KindParamsSpec`),
so propagation-model sweeps hash into orchestrator job digests and
cache/resume like any other scenario axis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..sim.rng import derive_seed
from .spec import KindParamsSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .channel import Transmission
    from .topology import Topology

#: Collision outcomes a model returns from ``resolve_collision``.
BOTH_LOST = "both-lost"
KEEP_LOCKED = "keep-locked"
CAPTURE_NEW = "capture-new"


@dataclass(frozen=True)
class PropagationSpec(KindParamsSpec):
    """A serializable recipe naming the propagation model a scenario uses.

    ``kind`` names the model; ``params`` is a sorted tuple of
    ``(name, value)`` pairs so the spec hashes stably into the
    orchestrator's job digests (see
    :class:`~repro.net.spec.KindParamsSpec`).
    """

    kind: str = "unit-disk"

    #: Models :func:`build_propagation_from_spec` can dispatch to.
    KINDS = ("unit-disk", "shadowing", "sinr")
    KIND_NOUN = "propagation"

    @property
    def is_unit_disk(self) -> bool:
        """Whether this spec selects the default (fast-path) model."""
        return self.kind == "unit-disk"


class PropagationStats:
    """Counters specific to non-default propagation models.

    Kept off :class:`~repro.net.channel.ChannelStats` so the channel's
    counter dict (pinned by the hot-path goldens) is unchanged for every
    existing scenario.
    """

    __slots__ = ("faded_links", "capture_wins", "capture_switches", "drowned_frames")

    def __init__(self) -> None:
        #: Sender->receiver pairs excluded from audibility by a negative
        #: fade margin (counted once per link).
        self.faded_links = 0
        #: Collisions where the locked frame's SINR cleared the capture
        #: threshold (the locked frame survived; the new frame was lost).
        self.capture_wins = 0
        #: Collisions where the *new* frame captured the receiver (the
        #: locked frame was corrupted, the receiver re-locked mid-air).
        self.capture_switches = 0
        #: Frames an *idle* receiver could not lock onto because their SINR
        #: over the frames already on the air fell below the threshold.
        self.drowned_frames = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return {
            "faded_links": self.faded_links,
            "capture_wins": self.capture_wins,
            "capture_switches": self.capture_switches,
            "drowned_frames": self.drowned_frames,
        }


class UnitDiskPropagation:
    """The paper's idealised channel: disk audibility, all-or-nothing loss.

    The channel special-cases this model (``is_unit_disk``) and runs its
    original inlined hot loop, so constructing it explicitly is
    observationally identical to the pre-strategy channel.
    """

    is_unit_disk = True
    name = "unit-disk"

    def __init__(self) -> None:
        self.stats = PropagationStats()

    def bind(self, topology: "Topology") -> None:
        """Attach the model to a topology (no state needed for unit disk)."""

    def audible(self, sender: int, neighbors: Tuple[int, ...]) -> Tuple[int, ...]:
        """Every disk neighbour hears every frame."""
        return neighbors

    def resolve_collision(
        self,
        receiver: int,
        locked_tx: "Transmission",
        new_tx: "Transmission",
        covering,
    ) -> str:
        """Any overlap corrupts both frames (the paper's model)."""
        return BOTH_LOST

    def can_lock(self, receiver: int, new_tx: "Transmission", covering) -> bool:
        """An idle unit-disk receiver always locks onto a starting frame."""
        return True


class LogDistanceShadowing:
    """Log-distance path loss with a cached log-normal shadowing field.

    Parameters (all reachable through :class:`PropagationSpec` params):

    ``exponent``
        Path-loss exponent ``n`` (2 = free space, 3-4 = cluttered outdoor).
    ``sigma_db``
        Standard deviation of the per-link log-normal shadowing gain in dB.
        ``0`` reproduces the unit disk exactly.
    ``symmetric``
        When truthy (the default), one gain is drawn per undirected link;
        ``0`` draws independent gains per direction, modelling asymmetric
        links (common on real sensor hardware).

    The fade margin of link ``a -> b`` is ``10 n log10(comm_range /
    d(a, b)) + gain_db(a, b)``; the link is audible iff the margin is
    non-negative.  Gains are drawn once per link from an RNG seeded by
    ``(run seed, link)`` -- draw order can never perturb them, which keeps
    parallel and serial sweeps bit-for-bit identical.  Received powers used
    by the SINR subclass are expressed relative to the sensitivity floor:
    ``rx_mw = 10 ** (margin_dB / 10)``.
    """

    is_unit_disk = False
    name = "shadowing"

    def __init__(
        self,
        exponent: float = 3.0,
        sigma_db: float = 4.0,
        symmetric: bool = True,
        seed: int = 0,
    ) -> None:
        if exponent <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {exponent!r}")
        if sigma_db < 0:
            raise ValueError(f"shadowing sigma must be non-negative, got {sigma_db!r}")
        self.exponent = float(exponent)
        self.sigma_db = float(sigma_db)
        self.symmetric = bool(symmetric)
        self.stats = PropagationStats()
        self._topology: Optional["Topology"] = None
        self._seed = int(seed)
        #: directed link -> shadowing gain in dB (drawn once per link).
        self._gain_cache: Dict[Tuple[int, int], float] = {}
        #: directed link -> fade margin dB (the placement is static).
        self._margin_cache: Dict[Tuple[int, int], float] = {}
        #: sender -> audible neighbour tuple.
        self._audible_cache: Dict[int, Tuple[int, ...]] = {}

    def bind(self, topology: "Topology") -> None:
        """Attach the model to ``topology`` (flushes position-keyed caches)."""
        self._topology = topology
        self._margin_cache.clear()
        self._audible_cache.clear()

    # ------------------------------------------------------------------ #
    # link budget
    # ------------------------------------------------------------------ #

    def gain_db(self, sender: int, receiver: int) -> float:
        """The (cached) shadowing gain of the directed link in dB."""
        key = (sender, receiver)
        gain = self._gain_cache.get(key)
        if gain is None:
            if self.sigma_db == 0.0:
                gain = 0.0
            else:
                if self.symmetric and receiver < sender:
                    a, b = receiver, sender
                else:
                    a, b = sender, receiver
                rng = random.Random(
                    derive_seed(self._seed, f"propagation.shadow.{a}->{b}")
                )
                gain = rng.gauss(0.0, self.sigma_db)
            self._gain_cache[key] = gain
            if self.symmetric:
                self._gain_cache[(receiver, sender)] = gain
        return gain

    def margin_db(self, sender: int, receiver: int) -> float:
        """Fade margin of ``sender -> receiver`` above sensitivity, in dB."""
        key = (sender, receiver)
        margin = self._margin_cache.get(key)
        if margin is not None:
            return margin
        topology = self._topology
        distance = topology.distance(sender, receiver)
        if distance <= 0.0:
            margin = float("inf")
        else:
            margin = 10.0 * self.exponent * math.log10(
                topology.comm_range / distance
            ) + self.gain_db(sender, receiver)
        self._margin_cache[key] = margin
        return margin

    def rx_mw(self, sender: int, receiver: int) -> float:
        """Received power relative to the sensitivity floor (1.0 = at floor)."""
        return 10.0 ** (self.margin_db(sender, receiver) / 10.0)

    # ------------------------------------------------------------------ #
    # channel hooks
    # ------------------------------------------------------------------ #

    def audible(self, sender: int, neighbors: Tuple[int, ...]) -> Tuple[int, ...]:
        """The disk neighbours whose fade margin is non-negative."""
        audible = self._audible_cache.get(sender)
        if audible is None:
            margin = self.margin_db
            audible = tuple(n for n in neighbors if margin(sender, n) >= 0.0)
            self.stats.faded_links += len(neighbors) - len(audible)
            self._audible_cache[sender] = audible
        return audible

    def resolve_collision(
        self,
        receiver: int,
        locked_tx: "Transmission",
        new_tx: "Transmission",
        covering,
    ) -> str:
        """Without SINR reasoning, any audible overlap corrupts both frames."""
        return BOTH_LOST

    def can_lock(self, receiver: int, new_tx: "Transmission", covering) -> bool:
        """Without SINR reasoning, an idle receiver locks like the unit disk."""
        return True


class SinrCapture(LogDistanceShadowing):
    """Shadowing link budget plus SINR-based reception with capture.

    Extra parameters:

    ``capture_db``
        SINR (dB) a frame must clear over noise-plus-interference to
        survive a collision.
    ``noise_db``
        Noise floor relative to the receiver sensitivity, in dB (negative:
        the floor sits below sensitivity).

    Collision resolution at a locked receiver when a new frame starts:

    1. locked frame's SINR over (noise + every other audible frame,
       including the new one) clears ``capture_db`` -- the locked frame
       survives and the new frame is simply lost at this receiver
       (``capture_wins``);
    2. otherwise, if the *new* frame's SINR over (noise + the rest) clears
       the threshold, the receiver drops the corrupted locked frame and
       re-locks onto the new one (``capture_switches``);
    3. otherwise both frames are corrupted, exactly as in the unit disk.

    SINR is evaluated at collision instants over the channel's per-node
    active-transmission index; a frame that was captured is not re-examined
    when later interferers end (decision-at-collision, the standard
    discrete-event simplification).
    """

    name = "sinr"

    def __init__(
        self,
        exponent: float = 3.0,
        sigma_db: float = 0.0,
        symmetric: bool = True,
        capture_db: float = 6.0,
        noise_db: float = -6.0,
        seed: int = 0,
    ) -> None:
        super().__init__(exponent=exponent, sigma_db=sigma_db, symmetric=symmetric, seed=seed)
        if capture_db < 0:
            raise ValueError(f"capture threshold must be non-negative, got {capture_db!r}")
        self.capture_db = float(capture_db)
        self.noise_db = float(noise_db)
        self._capture_linear = 10.0 ** (capture_db / 10.0)
        self._noise_mw = 10.0 ** (noise_db / 10.0)

    def resolve_collision(
        self,
        receiver: int,
        locked_tx: "Transmission",
        new_tx: "Transmission",
        covering,
    ) -> str:
        rx_mw = self.rx_mw
        locked_mw = rx_mw(locked_tx.sender, receiver)
        # ``covering`` holds every frame whose energy is on the air at the
        # receiver, the new frame included.  The locked frame is normally in
        # it too; the one absence case is a sender killed by failure
        # injection (``unregister`` pulls a dead node's frame from the
        # index because its energy is gone), and a dead frame contributes
        # no interference -- so the plain sum is complete either way.
        total_mw = self._noise_mw
        for transmission in covering:
            total_mw += rx_mw(transmission.sender, receiver)
        threshold = self._capture_linear
        # A frame an earlier overlap already corrupted cannot "win" however
        # strong it still is -- only an intact locked frame captures.  (An
        # intact locked frame is always in ``covering``, so subtracting its
        # power from the total yields its true interference.)
        if locked_tx.receivers.get(receiver, False) and locked_mw >= threshold * (
            total_mw - locked_mw
        ):
            self.stats.capture_wins += 1
            return KEEP_LOCKED
        new_mw = rx_mw(new_tx.sender, receiver)
        if new_mw >= threshold * (total_mw - new_mw):
            self.stats.capture_switches += 1
            return CAPTURE_NEW
        return BOTH_LOST

    def can_lock(self, receiver: int, new_tx: "Transmission", covering) -> bool:
        """An idle receiver locks only when the frame clears the SINR bar.

        ``covering`` holds every frame audible at the receiver (the new one
        included): with other frames already on the air, a weak newcomer is
        drowned -- the receiver stays idle and the frame is never received,
        rather than being locked intact as the unit disk would.
        """
        if len(covering) <= 1:
            return True
        rx_mw = self.rx_mw
        new_mw = rx_mw(new_tx.sender, receiver)
        interference_mw = self._noise_mw - new_mw
        for transmission in covering:
            interference_mw += rx_mw(transmission.sender, receiver)
        if new_mw >= self._capture_linear * interference_mw:
            return True
        self.stats.drowned_frames += 1
        return False


def build_propagation_from_spec(spec: PropagationSpec, seed: int = 0):
    """Instantiate the propagation model ``spec`` names.

    ``seed`` feeds the shadowing field; the channel binds the model to its
    topology at construction time.
    """
    if spec.kind == "unit-disk":
        return UnitDiskPropagation()
    if spec.kind == "shadowing":
        return LogDistanceShadowing(
            exponent=spec.param("exponent", 3.0),
            sigma_db=spec.param("sigma_db", 4.0),
            symmetric=bool(spec.param("symmetric", 1.0)),
            seed=seed,
        )
    if spec.kind == "sinr":
        return SinrCapture(
            exponent=spec.param("exponent", 3.0),
            sigma_db=spec.param("sigma_db", 0.0),
            symmetric=bool(spec.param("symmetric", 1.0)),
            capture_db=spec.param("capture_db", 6.0),
            noise_db=spec.param("noise_db", -6.0),
            seed=seed,
        )
    raise ValueError(f"unknown propagation kind {spec.kind!r}")  # pragma: no cover
