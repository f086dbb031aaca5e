"""Declarative spec codec: register a type's fields once, derive the rest.

Before this module the orchestrator carried ~20 hand-written
``*_to_dict`` / ``*_from_dict`` pairs, one per serializable spec type, each
repeating the same shape: list every field, convert tuples to lists, enums
to values, nested specs recursively -- and the inverse, by hand, with the
two directions drifting apart one review at a time.  The codec replaces
that with a registry: each type registers a :class:`SpecCodec` naming its
fields and how each one crosses the JSON boundary, and ``encode`` /
``decode`` are derived from the registration.  The result store and the
job digests use exactly these codecs, so a record read back from disk
decodes to the spec that produced it.

Versioning is part of the registration: a field declares ``since=N`` (the
schema version that introduced it) plus a default, and ``decode(cls, data,
version=...)`` fills the default when asked to read an older record.  The
result store uses this to load v3/v4/v5 records through the current codec.

Wire compatibility: for every registered type the encoded key names and
value shapes are identical to the retired hand-written helpers, so a v4
record's payload decodes through the same field table as a v5 one -- only
the ``counters`` field (since v4) is version-gated today.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

#: Bump when the job or record serialization format changes; digests embed
#: this so stale store entries are never mistaken for current ones.
#: v2: scenarios gained a topology spec and a failure schedule, and the
#: delivery-ratio metric stopped counting duplicate root deliveries.
#: v3: scenarios gained propagation, loss, and mobility specs (the
#: pluggable propagation layer).
#: v4: RunMetrics gained the per-run observability ``counters`` snapshot
#: (engine/network/protocol totals plus wall-clock cost).
#: v5: serialization moved to the declarative codec registry and the result
#: store became sharded; the field layout is unchanged (v3/v4 records still
#: decode -- see ``SUPPORTED_VERSIONS``), but digests are intentionally
#: re-keyed so pre-codec store entries migrate through the version-aware
#: load path instead of being trusted blindly.
#: v6: result-store lines carry ``metrics.sleep_intervals`` as base64 of
#: packed little-endian float64 instead of a JSON list (see
#: :mod:`repro.orchestrator.store`); records and their field layout are
#: unchanged in memory.  The bump makes a v5 reader skip a v6 line as an
#: unknown version instead of decoding the packed string as a list of
#: characters, and re-keys digests so v5 entries migrate on open.
SCHEMA_VERSION = 6

#: Record versions :func:`decode` knows how to read.  Older versions load
#: with version-gated fields filled from their registered defaults.
SUPPORTED_VERSIONS = (3, 4, 5, SCHEMA_VERSION)

_MISSING = object()

T = TypeVar("T")


class CodecError(ValueError):
    """A value could not be encoded or decoded against a registration."""


class Field:
    """One field of a registered type: its name and JSON conversions.

    ``encode`` maps the attribute value to a JSON-safe value; ``decode`` is
    its inverse.  ``since`` is the schema version that introduced the field:
    decoding data of an older version (or data where the key is absent)
    falls back to ``default`` / ``default_factory`` instead of raising.
    """

    __slots__ = ("name", "encode", "decode", "since", "default", "default_factory", "versioned")

    def __init__(
        self,
        name: str,
        encode: Callable[[Any], Any],
        decode: Callable[..., Any],
        *,
        since: int = 1,
        default: Any = _MISSING,
        default_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.name = name
        self.encode = encode
        self.decode = decode
        self.since = since
        self.default = default
        self.default_factory = default_factory
        #: Whether ``decode`` takes ``(data, version)`` instead of ``(data)``
        #: -- set for nested fields so the record's version threads through
        #: the whole decode tree (see :func:`versioned_decoder`).
        self.versioned = bool(getattr(decode, "_codec_versioned", False))

    def has_default(self) -> bool:
        """Whether decoding may fall back to a default for this field."""
        return self.default is not _MISSING or self.default_factory is not None

    def make_default(self) -> Any:
        """The fallback value used when decoding pre-``since`` data."""
        if self.default_factory is not None:
            return self.default_factory()
        return self.default


def _identity(value: Any) -> Any:
    return value


def versioned_decoder(fn: Callable[[Any, int], Any]) -> Callable[[Any, int], Any]:
    """Mark ``fn`` as a ``(data, version)`` decoder.

    :meth:`SpecCodec.decode` passes the record's schema version to marked
    decoders, which is how nested registered types are decoded at the
    version of the record that contains them rather than the current one.
    """
    fn._codec_versioned = True  # type: ignore[attr-defined]
    return fn


# ---------------------------------------------------------------------------
# Field constructors (the vocabulary registrations are written in)
# ---------------------------------------------------------------------------

def atom(name: str, **kwargs: Any) -> Field:
    """A field whose value is already JSON-safe (numbers, strings, None)."""
    return Field(name, _identity, _identity, **kwargs)


def seq(name: str, **kwargs: Any) -> Field:
    """A flat tuple field: encodes to a list, decodes back to a tuple."""
    return Field(name, list, tuple, **kwargs)


def pairs(name: str, **kwargs: Any) -> Field:
    """A tuple-of-pairs field (``((k, v), ...)`` <-> ``[[k, v], ...]``)."""
    return Field(
        name,
        lambda value: [list(pair) for pair in value],
        lambda data: tuple((k, v) for k, v in data),
        **kwargs,
    )


def enum_member(name: str, enum_cls: Type[enum.Enum], **kwargs: Any) -> Field:
    """An enum field stored by value."""
    return Field(name, lambda member: member.value, enum_cls, **kwargs)


def int_keyed(name: str, **kwargs: Any) -> Field:
    """A ``{int: float}`` field (JSON object keys are strings)."""
    return Field(
        name,
        lambda value: {str(k): v for k, v in value.items()},
        lambda data: {int(k): v for k, v in data.items()},
        **kwargs,
    )


def mapping(name: str, **kwargs: Any) -> Field:
    """A plain string-keyed dict field (defensively copied both ways)."""
    return Field(name, dict, dict, **kwargs)


def value_list(name: str, **kwargs: Any) -> Field:
    """A list of JSON-safe values (defensively copied both ways)."""
    return Field(name, list, list, **kwargs)


def custom(
    name: str, encode: Callable[[Any], Any], decode: Callable[[Any], Any], **kwargs: Any
) -> Field:
    """A field with explicit conversion callables (polymorphic values)."""
    return Field(name, encode, decode, **kwargs)


def nested(name: str, cls: type, **kwargs: Any) -> Field:
    """A field holding another registered type, encoded recursively.

    Decoding threads the containing record's schema version down into the
    nested payload, so a version-gated field anywhere in the tree honours
    the record it came from.
    """
    return Field(
        name, encode, versioned_decoder(lambda data, version: decode(cls, data, version)), **kwargs
    )


def optional_nested(name: str, cls: type, **kwargs: Any) -> Field:
    """Like :func:`nested` but passing ``None`` through unchanged."""
    return Field(
        name,
        lambda value: None if value is None else encode(value),
        versioned_decoder(
            lambda data, version: None if data is None else decode(cls, data, version)
        ),
        **kwargs,
    )


def nested_list(name: str, cls: type, **kwargs: Any) -> Field:
    """An optional sequence of registered values (``None`` passes through)."""
    return Field(
        name,
        lambda value: None if value is None else [encode(item) for item in value],
        versioned_decoder(
            lambda data, version: None
            if data is None
            else tuple(decode(cls, item, version) for item in data)
        ),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# The codec and its registry
# ---------------------------------------------------------------------------

class SpecCodec:
    """Field-table codec for one type.

    ``construct`` defaults to calling the class with the decoded fields as
    keyword arguments, which fits every frozen dataclass spec in the tree.
    """

    __slots__ = ("cls", "fields", "construct", "_by_name")

    def __init__(
        self,
        cls: type,
        fields: Sequence[Field],
        *,
        construct: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> None:
        self.cls = cls
        self.fields: Tuple[Field, ...] = tuple(fields)
        self.construct = construct if construct is not None else (lambda kwargs: cls(**kwargs))
        self._by_name = {spec_field.name: spec_field for spec_field in self.fields}
        if len(self._by_name) != len(self.fields):
            raise CodecError(f"duplicate field names registering {cls.__name__}")

    def encode(self, obj: Any) -> Dict[str, Any]:
        """JSON-safe dict of ``obj`` (field registration order)."""
        return {
            spec_field.name: spec_field.encode(getattr(obj, spec_field.name))
            for spec_field in self.fields
        }

    def decode(self, data: Dict[str, Any], version: int = SCHEMA_VERSION) -> Any:
        """Rebuild an instance from ``data`` written at schema ``version``.

        Fields introduced after ``version`` (or absent from ``data``) fall
        back to their registered default; a missing field with no default is
        a :class:`CodecError`, because silently guessing would let a
        corrupted record masquerade as a real result.
        """
        kwargs: Dict[str, Any] = {}
        for spec_field in self.fields:
            present = spec_field.since <= version and spec_field.name in data
            if present:
                raw = data[spec_field.name]
                if spec_field.versioned:
                    kwargs[spec_field.name] = spec_field.decode(raw, version)
                else:
                    kwargs[spec_field.name] = spec_field.decode(raw)
            elif spec_field.has_default():
                kwargs[spec_field.name] = spec_field.make_default()
            else:
                raise CodecError(
                    f"field {spec_field.name!r} of {self.cls.__name__} missing from "
                    f"v{version} data and has no registered default"
                )
        return self.construct(kwargs)

    def field_names(self) -> Tuple[str, ...]:
        """The registered field names, in registration order."""
        return tuple(spec_field.name for spec_field in self.fields)


_REGISTRY: Dict[type, SpecCodec] = {}


def register(
    cls: Type[T],
    *fields: Field,
    construct: Optional[Callable[[Dict[str, Any]], T]] = None,
) -> SpecCodec:
    """Register ``cls`` with its field table; returns the codec.

    Re-registering a type replaces its codec (tests exercise synthetic
    registrations); production registrations happen once at import time in
    :mod:`repro.orchestrator.jobs`.
    """
    codec = SpecCodec(cls, fields, construct=construct)
    _REGISTRY[cls] = codec
    return codec


def codec_for(cls: type) -> SpecCodec:
    """The codec registered for ``cls`` (walking the MRO for subclasses)."""
    for base in cls.__mro__:
        codec = _REGISTRY.get(base)
        if codec is not None:
            return codec
    raise CodecError(f"no codec registered for {cls.__name__}")


def encode(obj: Any) -> Dict[str, Any]:
    """Encode ``obj`` through its registered codec."""
    return codec_for(type(obj)).encode(obj)


def decode(cls: Type[T], data: Dict[str, Any], version: int = SCHEMA_VERSION) -> T:
    """Decode ``data`` (written at schema ``version``) into a ``cls``."""
    return codec_for(cls).decode(data, version)


def registered_types() -> List[type]:
    """Every type currently registered (registration order)."""
    return list(_REGISTRY)


def register_kind_params(cls: Type[T]) -> SpecCodec:
    """Register a :class:`~repro.net.spec.KindParamsSpec` subclass.

    All four scenario-axis specs share the ``kind`` + normalized ``params``
    shape, so their registration is one call instead of four field tables.
    """
    return register(cls, atom("kind"), pairs("params"))
