"""The ``determinism_sanitizer`` pytest fixture.

Defined here (importable from any conftest) rather than in the test tree,
because the fixture is part of the package's public sanitizer surface:
downstream users replaying our scenarios get the same guarantee by adding
``from repro.sanitizer.pytest_plugin import determinism_sanitizer`` to a
conftest of their own.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from .runtime import Sanitizer, sanitized


@pytest.fixture
def determinism_sanitizer() -> Iterator[Sanitizer]:
    """Run the test under armed tripwires.

    Any ``time.*`` / global ``random.*`` / ``os.environ`` read (or raw
    hot-site set iteration) executed while a :class:`Simulator` is
    running raises
    :class:`~repro.sanitizer.runtime.DeterminismViolation` with the
    offending stack.  Uninstalls afterwards unless the sanitizer was
    already installed process-wide (e.g. ``REPRO_SANITIZE=1`` on the
    whole pytest run).
    """
    with sanitized() as sanitizer:
        yield sanitizer
