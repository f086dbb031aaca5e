"""Spec codec: each dataclass's wire form, derived from its own fields.

Every spec that crosses the JSON boundary -- a :class:`RunJob`, its
scenario, workload or queries, the scenario's nested specs, and the run's
:class:`RunMetrics` -- is a dataclass, and its field list is written once,
on the dataclass.  :func:`codec_for` derives the wire form from
``dataclasses.fields`` and the field annotations:

* scalars and ``Optional`` scalars pass through unchanged;
* tuples become lists (a tuple of tuples a list of lists) and decode back
  to tuples;
* an ``Enum`` is stored by its value;
* ``Dict[int, _]`` gets string keys; ``Dict[str, _]`` and ``List[_]`` are
  copied;
* a nested dataclass -- plain, ``Optional``, or an optional tuple of them --
  encodes recursively.

A polymorphic field names its own ``(encode, decode)`` pair in its
``codec`` field metadata.  Every field is required on decode: a missing
key is a :class:`CodecError`, because almost every spec field has a
default and falling back to it would let a corrupted record decode
silently.  The codec reads only the current :data:`SCHEMA_VERSION`; the
result store treats a record of any other version as a cache miss.

Derivation runs once per class, on first use, and is cached; decoding a
record walks the prebuilt field table.  An annotation without a wire form
raises :class:`CodecError` when the class is derived.  The result store
and the job digests use exactly these codecs.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import (
    Any,
    Callable,
    Dict,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

#: Bump when the job or record serialization format changes; digests embed
#: this so stale store entries are never mistaken for current ones.
#: v2: scenarios gained a topology spec and a failure schedule, and the
#: delivery-ratio metric stopped counting duplicate root deliveries.
#: v3: scenarios gained propagation, loss, and mobility specs (the
#: pluggable propagation layer).
#: v4: RunMetrics gained the per-run observability ``counters`` snapshot
#: (engine/network/protocol totals plus wall-clock cost).
#: v5: the result store became sharded; the field layout is unchanged, but
#: digests were re-keyed with the layout.
#: v6: result-store lines carry ``metrics.sleep_intervals`` as base64 of
#: packed little-endian float64 instead of a JSON list (see
#: :mod:`repro.orchestrator.store`); records and their field layout are
#: unchanged in memory.  The bump makes a v5 reader skip a v6 line as an
#: unknown version instead of decoding the packed string as a list of
#: characters, and the store skips v5 lines the same way (a cache miss).
#: v7: scenarios lost the ``topology`` (placement generator) and
#: ``mobility`` specs; placement is always the paper's uniform random one.
#: v8: under a failure schedule, duty cycles, energies and the sleep
#: intervals cover the tree as assembled less the planned victims, for every
#: protocol (v7 churn records averaged whatever tree the run ended with).
#: The store keeps each version's lines in a directory of their own.
SCHEMA_VERSION = 8

T = TypeVar("T")

Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]
#: ``(encode, decode)`` for one annotation; ``None`` means pass-through.
Conversion = Optional[Tuple[Encoder, Decoder]]
#: ``(name, encode, decode)``: one derived field.  ``None`` converters pass
#: the value through.
FieldEntry = Tuple[str, Optional[Encoder], Optional[Decoder]]

_SCALARS = (int, float, str, bool)
_NONE_TYPE = type(None)


class CodecError(ValueError):
    """A class has no derivable wire form, or data does not fit it."""


class SpecCodec:
    """The derived field table of one dataclass."""

    __slots__ = ("cls", "fields")

    def __init__(self, cls: Type[Any]) -> None:
        self.cls = cls
        hints = get_type_hints(cls)
        self.fields: Tuple[FieldEntry, ...] = tuple(
            _derive_field(cls, spec_field, hints[spec_field.name])
            for spec_field in dataclasses.fields(cls)
        )

    def encode(self, obj: Any) -> Dict[str, Any]:
        """JSON-safe dict of ``obj`` (dataclass field order)."""
        out: Dict[str, Any] = {}
        for name, to_wire, _ in self.fields:
            value = getattr(obj, name)
            out[name] = value if to_wire is None else to_wire(value)
        return out

    def decode(self, data: Dict[str, Any]) -> Any:
        """Rebuild an instance from ``data``."""
        kwargs: Dict[str, Any] = {}
        for name, _, from_wire in self.fields:
            if name not in data:
                raise CodecError(f"field {name!r} of {self.cls.__name__} missing from data")
            raw = data[name]
            kwargs[name] = raw if from_wire is None else from_wire(raw)
        return self.cls(**kwargs)


def _derive_field(cls: type, spec_field: dataclasses.Field[Any], hint: Any) -> FieldEntry:
    pair = spec_field.metadata.get("codec")
    if pair is None:
        pair = _conversion(hint, f"{cls.__name__}.{spec_field.name}")
    if pair is None:
        return spec_field.name, None, None
    return spec_field.name, pair[0], pair[1]


def _conversion(hint: Any, where: str) -> Conversion:
    """The wire conversion of one annotation (see the module docstring)."""
    if hint in _SCALARS:
        return None
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _enum_value, hint
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        nested_cls: type = hint
        return encode, lambda data: decode(nested_cls, data)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and len(args) == 2 and _NONE_TYPE in args:
        inner = _conversion(args[1] if args[0] is _NONE_TYPE else args[0], where)
        if inner is None:
            return None
        inner_encode, inner_decode = inner
        return (
            lambda value: None if value is None else inner_encode(value),
            lambda data: None if data is None else inner_decode(data),
        )
    if origin is tuple:
        items = args[:1] if len(args) == 2 and args[1] is Ellipsis else args
        conversions = [_conversion(item, where) for item in items]
        if all(conversion is None for conversion in conversions):
            return list, tuple
        item = conversions[0] if len(conversions) == 1 else None
        if item is not None:
            item_encode, item_decode = item
            return (
                lambda value: [item_encode(element) for element in value],
                lambda data: tuple(item_decode(element) for element in data),
            )
    if origin is dict and _conversion(args[1], where) is None:
        if args[0] is int:
            return _str_keys, lambda data: {int(k): v for k, v in data.items()}
        if args[0] is str:
            return dict, dict
    if origin is list and _conversion(args[0], where) is None:
        return list, list
    raise CodecError(f"{where}: no wire form for annotation {hint!r}")


def _enum_value(member: enum.Enum) -> Any:
    return member.value


def _str_keys(value: Dict[int, Any]) -> Dict[str, Any]:
    return {str(k): v for k, v in value.items()}


_CODECS: Dict[type, SpecCodec] = {}


def codec_for(cls: type) -> SpecCodec:
    """The codec of dataclass ``cls``, derived on first use and cached."""
    codec = _CODECS.get(cls)
    if codec is None:
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"{cls.__name__} is not a dataclass, so it has no wire form")
        codec = _CODECS[cls] = SpecCodec(cls)
    return codec


def encode(obj: Any) -> Dict[str, Any]:
    """Encode the dataclass instance ``obj`` to a JSON-safe dict."""
    return codec_for(type(obj)).encode(obj)


def decode(cls: Type[T], data: Dict[str, Any]) -> T:
    """Decode ``data`` into a ``cls``."""
    return codec_for(cls).decode(data)
