"""Packet-loss models for failure injection.

Section 4.3 of the paper analyses protocol behaviour under transient packet
loss.  These models let experiments and tests inject loss independently of
MAC-level collisions: the channel consults the loss model right before
delivering a frame, so a dropped frame still costs the receiver the
reception energy (the bits were on the air) but never reaches the MAC.

Loss-model selection travels with a scenario as a serializable
:class:`LossSpec` (see :class:`~repro.net.spec.KindParamsSpec`), so
loss sweeps hash into orchestrator job digests like any other scenario
axis.  Beyond the independent-drop models, :class:`GilbertElliottLoss`
provides the classic two-state bursty channel: each directed link wanders
between a good and a bad state, so losses arrive in bursts and the two
directions of a link can disagree (asymmetric links), both of which real
sensor testbeds exhibit and independent drops cannot reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, Optional, Protocol, Tuple

from ..sim.rng import RandomStreams, derive_seed
from .packet import Packet
from .spec import KindParamsSpec


class LossModel(Protocol):
    """Interface for packet-loss models used by the wireless channel."""

    def should_drop(self, sender: int, receiver: int, packet: Packet) -> bool:
        """Return ``True`` to silently drop this frame at ``receiver``."""
        ...  # pragma: no cover - protocol definition


class NoLoss:
    """A loss model that never drops anything (the default)."""

    def should_drop(self, sender: int, receiver: int, packet: Packet) -> bool:
        return False


class UniformLoss:
    """Drop every frame independently with a fixed probability."""

    def __init__(self, probability: float, streams: Optional[RandomStreams] = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {probability!r}")
        self.probability = probability
        self._rng = (streams or RandomStreams(0)).get("loss.uniform")
        self.dropped = 0
        self.delivered = 0

    def should_drop(self, sender: int, receiver: int, packet: Packet) -> bool:
        drop = self._rng.random() < self.probability
        if drop:
            self.dropped += 1
        else:
            self.delivered += 1
        return drop


class ScriptedLoss:
    """Drop exactly the frames selected by a user-supplied predicate.

    Used in tests to drop, say, the 3rd data report of query 1 on one link
    and verify DTS resynchronisation behaviour deterministically.
    """

    def __init__(self, predicate) -> None:
        self._predicate = predicate
        self.dropped = 0

    def should_drop(self, sender: int, receiver: int, packet: Packet) -> bool:
        drop = bool(self._predicate(sender, receiver, packet))
        if drop:
            self.dropped += 1
        return drop


class GilbertElliottLoss:
    """Bursty, asymmetric loss: a two-state Markov chain per directed link.

    Every directed link ``sender -> receiver`` holds its own chain: in the
    *good* state frames drop with ``loss_good`` (usually near zero), in the
    *bad* state with ``loss_bad`` (a deep fade).  Before each frame the
    chain transitions with probability ``p_good_to_bad`` /
    ``p_bad_to_good``, so bad periods persist for ``1 / p_bad_to_good``
    frames on average -- losses arrive in bursts rather than independently.

    Each link's randomness comes from its own :class:`random.Random` seeded
    by ``(seed, link)``, so the chain a link follows never depends on what
    other links transmitted (draw-order independence keeps parallel sweeps
    bit-for-bit equal to serial ones), and the two directions of a link are
    independent (asymmetric links).
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 0.8,
        seed: int = 0,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        for name, probability in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {probability!r}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._seed = streams.seed if streams is not None else int(seed)
        #: directed link -> (rng, in_bad_state)
        self._links: Dict[Tuple[int, int], Tuple[Random, bool]] = {}
        self.dropped = 0
        self.delivered = 0
        #: Number of good->bad transitions taken (bursts entered).
        self.bursts = 0

    def _link_state(self, sender: int, receiver: int) -> Tuple[Random, bool]:
        key = (sender, receiver)
        state = self._links.get(key)
        if state is None:
            rng = Random(derive_seed(self._seed, f"loss.ge.{sender}->{receiver}"))
            state = (rng, False)  # links start in the good state
            self._links[key] = state
        return state

    def in_bad_state(self, sender: int, receiver: int) -> bool:
        """Whether the directed link currently sits in its bad state."""
        return self._link_state(sender, receiver)[1]

    def should_drop(self, sender: int, receiver: int, packet: Packet) -> bool:
        rng, bad = self._link_state(sender, receiver)
        if bad:
            if rng.random() < self.p_bad_to_good:
                bad = False
        elif rng.random() < self.p_good_to_bad:
            bad = True
            self.bursts += 1
        self._links[(sender, receiver)] = (rng, bad)
        probability = self.loss_bad if bad else self.loss_good
        drop = probability > 0.0 and rng.random() < probability
        if drop:
            self.dropped += 1
        else:
            self.delivered += 1
        return drop


# ---------------------------------------------------------------------------
# Serializable loss selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossSpec(KindParamsSpec):
    """A serializable recipe naming the loss model a scenario injects.

    ``kind`` names the model; ``params`` is a sorted tuple of
    ``(name, value)`` pairs so the spec hashes stably into the
    orchestrator's job digests (see
    :class:`~repro.net.spec.KindParamsSpec`).  The default (``none``)
    injects nothing and keeps the channel on its lossless fast path.
    """

    kind: str = "none"

    #: Models :func:`build_loss_from_spec` can dispatch to.
    KINDS = ("none", "uniform", "gilbert-elliott")
    KIND_NOUN = "loss"


def build_loss_from_spec(spec: LossSpec, seed: int = 0) -> Optional[LossModel]:
    """Instantiate the loss model ``spec`` names (``None`` for ``none``).

    ``seed`` is the run's replication seed, so every replication draws an
    independent but reproducible loss realisation.
    """
    if spec.kind == "none":
        return None
    if spec.kind == "uniform":
        return UniformLoss(
            probability=spec.param("probability", 0.1),
            streams=RandomStreams(seed),
        )
    if spec.kind == "gilbert-elliott":
        return GilbertElliottLoss(
            p_good_to_bad=spec.param("p_good_to_bad", 0.05),
            p_bad_to_good=spec.param("p_bad_to_good", 0.25),
            loss_good=spec.param("loss_good", 0.0),
            loss_bad=spec.param("loss_bad", 0.8),
            seed=seed,
        )
    raise ValueError(f"unknown loss kind {spec.kind!r}")  # pragma: no cover
