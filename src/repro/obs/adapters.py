"""One flat counters dict from the stats objects a finished run already keeps.

The models already count everything interesting -- ``ChannelStats`` on the
channel, ``MacStats`` per node, ``ShaperStats`` / ``SafeSleepStats`` /
``QueryServiceStats`` per ESSAT node, ``PropagationStats`` on non-default
propagation models, and event totals on the engine itself.
:func:`collect_run_counters` folds all of them into the sorted
``{name: value}`` dict that travels on
:class:`~repro.experiments.metrics.RunMetrics`.

Names are dotted ``layer.metric`` (``engine.events_processed``,
``channel.collisions``, ``mac.frames_sent``); per-node stats are summed
into network-wide totals.

Everything here is duck-typed (``getattr`` probes, ``as_dict()`` /
dataclass-field fallbacks) so this module imports nothing from the model
layers -- ``repro.obs`` stays a leaf package with no import cycles, and the
adapters keep working for baseline suites that only have a subset of the
ESSAT stats objects.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional


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


def _add_stats(counters: Dict[str, float], prefix: str, stats: Any) -> None:
    """Add one stats object's counts into ``counters`` as ``prefix.<key>``.

    Called once per node, this sums per-node stats into network-wide
    totals.  Counts never decrease, so a negative one is a model bug.
    """
    for key, value in stats_as_mapping(stats).items():
        if value < 0:
            raise ValueError(f"counter {prefix}.{key} cannot decrease (inc by {value!r})")
        name = f"{prefix}.{key}"
        counters[name] = counters.get(name, 0.0) + value


def collect_run_counters(
    sim: Any,
    network: Any = None,
    suite: Any = None,
    *,
    wall_seconds: Optional[float] = None,
) -> Dict[str, float]:
    """One flat ``{name: value}`` snapshot of a finished run, keys sorted.

    :meth:`~repro.experiments.runner.AssembledRun.execute` calls this
    once after ``sim.run`` returns; the result becomes
    ``RunMetrics.counters`` and rides through the orchestrator store.
    """
    counters: Dict[str, float] = {}
    for name, attr in (
        ("engine.events_processed", "processed_events"),
        ("engine.events_scheduled", "scheduled_events"),
        ("engine.events_cancelled", "cancelled_events"),
        ("engine.peak_heap_size", "peak_heap_size"),
        ("engine.pending_events", "pending_events"),
    ):
        value = getattr(sim, attr, None)
        if isinstance(value, (int, float)):
            counters[name] = float(value)
    sim_time = getattr(sim, "now", None)
    if isinstance(sim_time, (int, float)):
        counters["engine.sim_time"] = float(sim_time)
        if wall_seconds is not None:
            wall = float(wall_seconds)
            counters["run.wall_seconds"] = wall
            if sim_time > 0:
                counters["run.wall_seconds_per_sim_second"] = wall / float(sim_time)
    if network is not None:
        channel = getattr(network, "channel", None)
        _add_stats(counters, "channel", getattr(channel, "stats", None))
        propagation = getattr(channel, "propagation", None)
        _add_stats(counters, "propagation", getattr(propagation, "stats", None))
        for node in (getattr(network, "nodes", None) or {}).values():
            _add_stats(counters, "mac", getattr(getattr(node, "mac", None), "stats", None))
    # ESSAT suites expose ``nodes`` (id -> per-node protocol state with
    # ``shaper`` / ``service`` / ``safe_sleep``); baselines without those
    # attributes simply contribute nothing.
    essat_nodes = getattr(suite, "nodes", None)
    if isinstance(essat_nodes, dict):
        for essat_node in essat_nodes.values():
            for prefix, attr in (
                ("shaper", "shaper"),
                ("query_service", "service"),
                ("safe_sleep", "safe_sleep"),
            ):
                component = getattr(essat_node, attr, None)
                _add_stats(counters, prefix, getattr(component, "stats", None))
    return dict(sorted(counters.items()))
