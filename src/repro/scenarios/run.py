"""Run scenario families through the orchestrator.

One family run flattens every ``variant x protocol x replication`` into a
single content-addressed job sweep, so worker fan-out overlaps across
variants and a warm result store replays a whole family without touching
the simulator.  Each cell's :class:`~repro.orchestrator.api.ExperimentResult`
keeps its per-job execution metadata, which is how callers (and the
acceptance tests) can assert "this replay performed zero simulator runs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..experiments.config import ScenarioConfig
from ..experiments.scenarios import REDUCED
from ..experiments.tables import comparison_table
from ..orchestrator.api import (
    ExperimentResult,
    ExperimentSpec,
    JobResult,
    ProgressLike,
    StoreLike,
    run_sweep,
)
from .families import ScenarioFamily, ScenarioVariant, get_family

#: Protocol a family runs by default (the strongest ESSAT variant); pass
#: ``protocols=`` explicitly for baseline comparisons.
DEFAULT_FAMILY_PROTOCOLS: Tuple[str, ...] = ("DTS-SS",)


@dataclass
class FamilyRunResult:
    """Everything produced by one scenario-family sweep."""

    family: ScenarioFamily
    variants: List[ScenarioVariant]
    protocols: Tuple[str, ...]
    #: ``(variant label, protocol) -> ExperimentResult``, in job order.
    results: Dict[Tuple[str, str], ExperimentResult]

    @property
    def job_results(self) -> List[JobResult]:
        """Per-replication execution metadata, in job order."""
        return [run for result in self.results.values() for run in result.runs]

    @property
    def executed_runs(self) -> int:
        """Jobs that actually ran the simulator."""
        return sum(1 for run in self.job_results if not run.cached)

    @property
    def cached_runs(self) -> int:
        """Jobs satisfied from the result store (or in-sweep duplicates)."""
        return sum(1 for run in self.job_results if run.cached)

    def result(self, label: str, protocol: str) -> ExperimentResult:
        """The experiment result of one ``(variant label, protocol)`` cell."""
        return self.results[(label, protocol)]

    def table(self) -> str:
        """Plain-text summary table (one row per variant x protocol)."""
        rows: Dict[str, Dict[str, float]] = {}
        for variant in self.variants:
            for protocol in self.protocols:
                metrics = self.results[(variant.label, protocol)].metrics
                rows[f"{variant.label} {protocol}"] = {
                    "duty_cycle_%": metrics.average_duty_cycle * 100.0,
                    "latency_ms": metrics.average_query_latency * 1000.0,
                    "delivery_ratio": metrics.delivery_ratio,
                }
        return comparison_table(rows, ["duty_cycle_%", "latency_ms", "delivery_ratio"])


def run_family(
    family: Union[str, ScenarioFamily],
    *,
    base: Optional[ScenarioConfig] = None,
    protocols: Sequence[str] = DEFAULT_FAMILY_PROTOCOLS,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FamilyRunResult:
    """Run one scenario family as a single orchestrated sweep.

    ``base`` (default: the scenario of the reduced entry of
    :data:`~repro.experiments.scenarios.SCALES`) seeds the family's
    variants; every variant is run under every protocol in ``protocols``
    with ``num_runs`` replications (default: per the variant's scenario).
    ``jobs``, ``store`` and ``progress`` are passed to
    :func:`~repro.orchestrator.api.run_sweep` -- a warm
    ``store`` replays the family with zero simulator runs.
    """
    if isinstance(family, str):
        family = get_family(family)
    base = base if base is not None else REDUCED.scenario()
    variants = family.variants(base)
    labels = [variant.label for variant in variants]
    if len(set(labels)) != len(labels):
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        raise ValueError(
            f"scenario family {family.name!r} produced duplicate variant labels "
            f"{duplicates} at this base scale; labels key the result cells and "
            "must be unique"
        )
    protocols = tuple(protocols)
    if not protocols:
        raise ValueError("need at least one protocol to run a scenario family")

    cells = [(variant, protocol) for variant in variants for protocol in protocols]
    specs = [
        ExperimentSpec(
            scenario=variant.scenario,
            protocol=protocol,
            workload=variant.workload,
            num_runs=num_runs,
        )
        for variant, protocol in cells
    ]
    assembled = run_sweep(specs, jobs=jobs, store=store, progress=progress, label=family.name)
    return FamilyRunResult(
        family=family,
        variants=variants,
        protocols=protocols,
        results={
            (variant.label, protocol): result
            for (variant, protocol), result in zip(cells, assembled, strict=True)
        },
    )
