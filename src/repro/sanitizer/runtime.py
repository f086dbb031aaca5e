"""The sanitizer runtime: patch, arm, trip, restore.

The mechanism is deliberately boring: every hazardous entry point is
replaced by a wrapper that forwards untouched while *disarmed* and raises
:class:`DeterminismViolation` (after recording a :class:`TripwireHit`)
while *armed*.  Arming brackets exactly the window where wall-clock and
environment reads poison reproducibility -- the body of
``Simulator.run()`` -- via the engine's ``run_watcher`` class hook, which
this module sets on install.  Everything outside that window (building
topologies, timing sweeps, reading configuration) behaves as if the
sanitizer did not exist.

``os.environ`` is guarded at the class level (``os._Environ.__getitem__``)
so ``environ[...]``, ``environ.get(...)`` and ``"X" in environ`` all
funnel through one tripwire.  ``datetime.datetime.now`` is a method of a C
type and cannot be patched; a read that changes a result fails the
goldens instead.  Named RNG streams (:mod:`repro.sim.rng`) hold their own
``random.Random`` instances and are untouched -- only the *module-level*
functions backed by the shared global state are hazards.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, NoReturn, Optional, Tuple

#: Environment flag that turns the sanitizer on (any value but "" / "0").
ENV_FLAG = "REPRO_SANITIZE"

#: ``time`` module functions wrapped with tripwires.
_TIME_FUNCTIONS = (
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
    "sleep",
)

#: Module-level ``random`` functions (global-state randomness) wrapped.
_RANDOM_FUNCTIONS = (
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "expovariate",
    "getrandbits",
    "seed",
)


class DeterminismViolation(RuntimeError):
    """A determinism hazard executed while a simulation was running."""

    def __init__(self, site: str, stack: str) -> None:
        super().__init__(
            f"determinism violation: `{site}` called during Simulator.run()\n"
            f"--- call site ---\n{stack}"
        )
        self.site = site
        self.stack = stack


@dataclass(frozen=True, slots=True)
class TripwireHit:
    """One recorded violation (also raised as :class:`DeterminismViolation`)."""

    site: str
    stack: str


def _call_site_stack(limit: int = 12) -> str:
    """The formatted stack of the offending call, sanitizer frames removed."""
    # Imported here: only a tripped wire needs it, and it pulls in textwrap.
    import traceback

    frames = traceback.extract_stack()
    package_dir = os.path.dirname(__file__)
    kept = [frame for frame in frames if not frame.filename.startswith(package_dir)]
    return "".join(traceback.format_list(kept[-limit:])).rstrip()


class Sanitizer:
    """Install/arm/trip/uninstall lifecycle for the runtime tripwires."""

    def __init__(self) -> None:
        self.hits: List[TripwireHit] = []
        self._armed = False
        self._installed = False
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def installed(self) -> bool:
        return self._installed

    # -- patch plumbing -----------------------------------------------

    def _patch(self, target: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((target, attribute, getattr(target, attribute)))
        setattr(target, attribute, replacement)

    def _guard(self, site: str, original: Callable[..., Any]) -> Callable[..., Any]:
        def tripwire(*args: Any, **kwargs: Any) -> Any:
            if self._armed:
                self.trip(site)
            return original(*args, **kwargs)

        tripwire.__name__ = f"sanitized_{site.replace('.', '_')}"
        tripwire.__qualname__ = tripwire.__name__
        return tripwire

    # -- lifecycle ----------------------------------------------------

    def install(self) -> None:
        """Patch the hazard surface and hook the engine.  Idempotent."""
        if self._installed:
            return
        for name in _TIME_FUNCTIONS:
            self._patch(time, name, self._guard(f"time.{name}", getattr(time, name)))
        for name in _RANDOM_FUNCTIONS:
            self._patch(
                random, name, self._guard(f"random.{name}", getattr(random, name))
            )
        environ_cls = type(os.environ)
        self._patch(
            environ_cls,
            "__getitem__",
            self._guard("os.environ[...]", environ_cls.__getitem__),
        )
        self._patch(os, "getenv", self._guard("os.getenv", os.getenv))

        from . import sets

        sets.wrap_hot_sites(self)

        from ..sim import engine

        engine.Simulator.run_watcher = self
        self._installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute and unhook the engine."""
        if not self._installed:
            return
        from . import sets

        sets.unwrap_hot_sites(self)
        for target, attribute, original in reversed(self._patches):
            setattr(target, attribute, original)
        self._patches.clear()

        from ..sim import engine

        if engine.Simulator.run_watcher is self:
            engine.Simulator.run_watcher = None
        self._armed = False
        self._installed = False

    def arm(self) -> None:
        """Called by the engine on ``run()`` entry."""
        self._armed = True

    def disarm(self) -> None:
        """Called by the engine when ``run()`` unwinds."""
        self._armed = False

    def trip(self, site: str) -> NoReturn:
        """Record a hit and raise; called from a tripwire while armed."""
        self._armed = False  # the formatter below must not re-trip
        stack = _call_site_stack()
        hit = TripwireHit(site=site, stack=stack)
        self.hits.append(hit)
        raise DeterminismViolation(site, stack)


#: The process-wide sanitizer, when installed.
_ACTIVE: Optional[Sanitizer] = None


def active() -> Optional[Sanitizer]:
    """The currently installed sanitizer, or ``None``."""
    return _ACTIVE


def install() -> Sanitizer:
    """Install the process-wide sanitizer (idempotent; returns it)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Sanitizer()
        _ACTIVE.install()
    return _ACTIVE


def uninstall() -> None:
    """Remove the process-wide sanitizer and restore all patches."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.uninstall()
        _ACTIVE = None


def enabled_by_env() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for the sanitizer."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def maybe_install_from_env() -> Optional[Sanitizer]:
    """Install iff the environment asks for it (worker-process entry).

    Called at the top of the experiment runner so every process that
    executes simulations -- the CLI itself, spawn-pool sweep workers, a
    pytest session -- honours one environment flag.  Runs before any
    simulation starts, i.e. outside the armed window, so the flag read
    itself never trips.
    """
    if enabled_by_env():
        return install()
    return active()


@contextmanager
def sanitized() -> Iterator[Sanitizer]:
    """Context-managed install; uninstalls only what it installed."""
    owned = _ACTIVE is None
    sanitizer = install()
    try:
        yield sanitizer
    finally:
        if owned:
            uninstall()
