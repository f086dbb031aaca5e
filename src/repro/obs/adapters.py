"""Adapters from existing stats objects to a :class:`MetricsRegistry`.

The models already count everything interesting -- ``ChannelStats`` on the
channel, ``MacStats`` per node, ``ShaperStats`` / ``SafeSleepStats`` /
``QueryServiceStats`` per ESSAT node, ``PropagationStats`` on non-default
propagation models, and event totals on the engine itself.  These adapters
fold all of them into one registry at the end of a run, producing the flat
``counters`` dict that travels on
:class:`~repro.experiments.metrics.RunMetrics`.

Everything here is duck-typed (``getattr`` probes, ``as_dict()`` /
dataclass-field fallbacks) so this module imports nothing from the model
layers -- ``repro.obs`` stays a leaf package with no import cycles, and the
adapters keep working for baseline suites that only have a subset of the
ESSAT stats objects.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional

from .metrics import MetricsRegistry


def stats_as_mapping(obj: Any) -> Dict[str, float]:
    """Numeric counters of one stats object, however it spells them.

    Prefers an ``as_dict()`` method (``ChannelStats``, ``MacStats``,
    ``PropagationStats``); falls back to dataclass fields (``ShaperStats``,
    ``SafeSleepStats``, ``QueryServiceStats`` are plain slotted dataclasses).
    Non-numeric values are dropped; ``None``/unknown objects yield ``{}``.
    """
    if obj is None:
        return {}
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        raw: Mapping[str, Any] = as_dict()
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        raw = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    else:
        return {}
    return {
        key: float(value)
        for key, value in raw.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def collect_engine_counters(
    registry: MetricsRegistry, sim: Any, *, wall_seconds: Optional[float] = None
) -> None:
    """Engine internals: event totals, heap high-water mark, wall-clock cost."""
    for name, attr in (
        ("engine.events_processed", "processed_events"),
        ("engine.events_scheduled", "scheduled_events"),
        ("engine.events_cancelled", "cancelled_events"),
        ("engine.peak_heap_size", "peak_heap_size"),
        ("engine.pending_events", "pending_events"),
    ):
        value = getattr(sim, attr, None)
        if isinstance(value, (int, float)):
            registry.gauge(name).set(float(value))
    sim_time = getattr(sim, "now", None)
    if isinstance(sim_time, (int, float)):
        registry.gauge("engine.sim_time").set(float(sim_time))
        if wall_seconds is not None:
            registry.gauge("run.wall_seconds").set(float(wall_seconds))
            if sim_time > 0:
                registry.gauge("run.wall_seconds_per_sim_second").set(
                    float(wall_seconds) / float(sim_time)
                )


def collect_network_counters(registry: MetricsRegistry, network: Any) -> None:
    """Channel totals, propagation-model totals, and network-wide MAC sums."""
    channel = getattr(network, "channel", None)
    registry.count_from("channel", stats_as_mapping(getattr(channel, "stats", None)))
    propagation = getattr(channel, "propagation", None)
    registry.count_from(
        "propagation", stats_as_mapping(getattr(propagation, "stats", None))
    )
    nodes = getattr(network, "nodes", None) or {}
    for node in nodes.values():
        mac = getattr(node, "mac", None)
        registry.count_from("mac", stats_as_mapping(getattr(mac, "stats", None)))


def collect_suite_counters(registry: MetricsRegistry, suite: Any) -> None:
    """Protocol-layer sums over the suite's per-node stats objects.

    ESSAT suites expose ``nodes`` (id -> per-node protocol state with
    ``shaper`` / ``service`` / ``safe_sleep``); baselines without those
    attributes simply contribute nothing.
    """
    nodes = getattr(suite, "nodes", None)
    if not isinstance(nodes, dict):
        return
    for essat_node in nodes.values():
        for prefix, attr in (
            ("shaper", "shaper"),
            ("query_service", "service"),
            ("safe_sleep", "safe_sleep"),
        ):
            component = getattr(essat_node, attr, None)
            registry.count_from(prefix, stats_as_mapping(getattr(component, "stats", None)))


def collect_run_counters(
    sim: Any,
    network: Any = None,
    suite: Any = None,
    *,
    wall_seconds: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """One flat ``{name: value}`` snapshot of a finished run.

    The per-run entry point :func:`~repro.experiments.runner.run_single`
    calls this once after ``sim.run`` returns; the result becomes
    ``RunMetrics.counters`` and rides through the orchestrator store.
    """
    registry = registry if registry is not None else MetricsRegistry()
    collect_engine_counters(registry, sim, wall_seconds=wall_seconds)
    if network is not None:
        collect_network_counters(registry, network)
    if suite is not None:
        collect_suite_counters(registry, suite)
    return registry.snapshot()
