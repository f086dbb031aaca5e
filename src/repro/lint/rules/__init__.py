"""The shipped reprolint rules.

Importing this package registers every rule with the registry in
:mod:`repro.lint.base`.  Each rule's class docstring documents the invariant
it enforces, why the invariant exists, and which test or PR motivated it.
"""

from __future__ import annotations

from . import ordering, slots, tracing

__all__ = ["ordering", "slots", "tracing"]
