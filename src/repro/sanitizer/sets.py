"""Set-iteration guards for the known hot sites.

``tests/test_set_order.py`` statically rejects ordering-sensitive
iteration over sets in the simulation packages, but it cannot see
iteration that arrives through C-level helpers or future compiled fast
paths.  :class:`GuardedSet` is a ``set`` subclass whose *Python-level*
iteration trips while a simulation is armed; the C-level operations the
hot sites legitimately use -- membership, ``add``/``discard``/``remove``,
set difference (which returns a plain ``set``) -- go through unguarded,
so a sanitized run is bit-identical to a plain one right up until someone
introduces a raw ``for child in received_children`` into
scheduling-relevant code.

The wrapped sites are the per-event set state the profiler knows about:

* ``query.report.CollectionState.expected_children`` /
  ``received_children`` -- child-contribution bookkeeping, consumed via
  membership and ``expected - received`` (iteration of the *result* is
  sanctioned: it is a fresh plain set, sorted before use),
* ``mac.csma.CsmaMac._seen_packet_ids`` -- duplicate-suppression window,
  membership/add/discard only,
* ``query.service._PeriodWatermark.sparse`` -- out-of-order period
  indexes, membership/add/remove under the watermark fold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from .runtime import Sanitizer

#: ``(module, class, attributes)`` wrapped after ``__init__`` runs.
HOT_SITES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.query.report", "CollectionState", ("expected_children", "received_children")),
    ("repro.mac.csma", "CsmaMac", ("_seen_packet_ids",)),
    ("repro.query.service", "_PeriodWatermark", ("sparse",)),
)

#: The sanitizer consulted by armed-iteration checks (set by runtime).
_guard_owner: Optional["Sanitizer"] = None


class GuardedSet(set):  # type: ignore[type-arg]
    """A ``set`` that trips the sanitizer on Python-level iteration while
    a simulation is armed.  C-level operations (membership, difference,
    union, ...) bypass ``__iter__`` by design and stay allowed."""

    __slots__ = ("site",)

    def __init__(self, iterable: Iterable[Any] = (), site: str = "set") -> None:
        super().__init__(iterable)
        self.site = site

    def _check(self, operation: str) -> None:
        owner = _guard_owner
        if owner is not None and owner.armed:
            owner.trip(f"set-iteration ({operation}) at {self.site}")

    def __iter__(self) -> Iterator[Any]:
        self._check("__iter__")
        return super().__iter__()

    def pop(self) -> Any:
        self._check("pop")
        return super().pop()


def wrap_hot_sites(sanitizer: "Sanitizer") -> None:
    """Patch each hot-site class so new instances carry guarded sets."""
    global _guard_owner
    _guard_owner = sanitizer
    for module_name, class_name, attributes in HOT_SITES:
        module = __import__(module_name, fromlist=[class_name])
        cls = getattr(module, class_name)
        original_init = cls.__init__

        def guarded_init(
            self: Any,
            *args: Any,
            __original: Any = original_init,
            __attributes: Tuple[str, ...] = attributes,
            __site: str = f"{module_name}.{class_name}",
            **kwargs: Any,
        ) -> None:
            __original(self, *args, **kwargs)
            for attribute in __attributes:
                value = getattr(self, attribute)
                if isinstance(value, set) and not isinstance(value, GuardedSet):
                    setattr(
                        self,
                        attribute,
                        GuardedSet(value, site=f"{__site}.{attribute}"),
                    )

        # sanitizer._patch records the original for uninstall.
        sanitizer._patch(cls, "__init__", guarded_init)


def unwrap_hot_sites(sanitizer: "Sanitizer") -> None:
    """Drop the guard owner; ``__init__`` restoration happens with the
    rest of the patch list in :meth:`Sanitizer.uninstall`."""
    global _guard_owner
    if _guard_owner is sanitizer:
        _guard_owner = None
