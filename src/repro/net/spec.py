"""Shared base for the serializable ``kind + params`` scenario specs.

Two scenario axes travel as small frozen dataclasses naming a model kind
plus a sorted ``(name, value)`` parameter tuple:
:class:`~repro.net.propagation.PropagationSpec` and
:class:`~repro.net.loss.LossSpec`.  They share identical normalization,
validation, and accessor machinery; this base holds it once so the next
axis is a subclass with a ``KINDS`` tuple and a builder function, nothing
more.

Normalized params (sorted, ``(str, float)``) are what make the specs hash
stably into the orchestrator's content-addressed job digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple


@dataclass(frozen=True)
class KindParamsSpec:
    """A serializable ``kind`` + normalized ``params`` model selector.

    Subclasses set ``KINDS`` (the kinds their builder dispatches on),
    ``KIND_NOUN`` (for error messages), and a default ``kind``.
    """

    kind: str = ""
    params: Tuple[Tuple[str, float], ...] = ()

    #: Kinds the matching builder function can dispatch to.
    KINDS: ClassVar[Tuple[str, ...]] = ()
    #: Human noun used in validation errors ("propagation", "loss").
    KIND_NOUN: ClassVar[str] = "model"

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(
                f"unknown {self.KIND_NOUN} kind {self.kind!r}; expected one of {self.KINDS}"
            )
        normalized = tuple(sorted((str(k), float(v)) for k, v in self.params))
        object.__setattr__(self, "params", normalized)

    @classmethod
    def make(cls, kind: str, **params: float) -> "KindParamsSpec":
        """Build a spec from keyword parameters (``Spec.make("kind", knob=3)``)."""
        return cls(kind=kind, params=tuple(params.items()))

    def param(self, name: str, default: float) -> float:
        """The value of parameter ``name``, or ``default`` when unset."""
        for key, value in self.params:
            if key == name:
                return value
        return default
