"""Perf-history reporting: trajectory figures, profile diffs, regression gate.

Three consumers of :class:`~repro.obs.history.PerfHistory`:

* :func:`trajectory_figure` renders the recorded samples of each cell as a
  :class:`~repro.experiments.tables.FigureResult` -- the same machinery the
  paper figures use, so ``repro perf report`` prints the speedup trajectory
  as an aligned table exactly like ``repro figure fig3`` does.
* :func:`diff_breakdown` compares two recorded entries' profiled
  ``layer_breakdown`` fractions, so a regression *names the layer that
  moved* instead of just a slower total.
* :func:`check_regression` replaces the crude ">2x below baseline" CI floor
  with a statistical bound once a cell has enough recorded samples: the
  current measurement is compared against a one-sided Student-t prediction
  bound computed from the recorded history (the exact Student-t quantile in
  :mod:`repro.experiments.stats` supplies the critical values).  With fewer
  than ``min_samples`` recorded samples the old multiplicative floor is the
  fallback, so a young history is never less safe than the old gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..experiments.stats import sample_std, t_critical
from ..experiments.tables import FigureResult, Series
from .history import PerfEntry, PerfHistory

#: Fewest recorded samples before the statistical bound applies.
MIN_STATISTICAL_SAMPLES = 3

#: Fallback multiplicative floor (matches the benchmark's historical >2x
#: gate: a cell fails when it drops below 0.5x its reference value).
FALLBACK_FLOOR = 0.5

#: Confidence level of the one-sided prediction bound.
DEFAULT_CONFIDENCE = 0.99

#: Drops smaller than this fraction of the historical mean are never
#: flagged, even if the history's variance is tiny enough that the
#: statistical bound would catch them (guards against machine micro-noise
#: on suspiciously stable histories).
MIN_MATERIAL_DROP = 0.05


@dataclass
class RegressionFinding:
    """The verdict for one benchmark cell."""

    cell: str
    current: float
    #: ``"statistical"`` (t-bound over >= min_samples) or ``"floor"``
    #: (multiplicative fallback) or ``"no-history"`` (nothing to compare).
    method: str
    regressed: bool
    mean: Optional[float] = None
    std: Optional[float] = None
    samples: int = 0
    #: The threshold the current value was compared against (same unit and
    #: direction as the cell itself).
    bound: Optional[float] = None
    #: current / historical mean (>1 = faster for events/sec cells).
    ratio: Optional[float] = None
    message: str = ""


@dataclass
class RegressionReport:
    """All findings of one ``perf check`` invocation."""

    bench: str
    findings: List[RegressionFinding] = field(default_factory=list)

    @property
    def regressions(self) -> List[RegressionFinding]:
        """Only the cells that failed their gate."""
        return [finding for finding in self.findings if finding.regressed]

    @property
    def ok(self) -> bool:
        """Whether every checked cell passed."""
        return not self.regressions


def check_regression(
    history: PerfHistory,
    current_cells: Mapping[str, float],
    *,
    bench: str = "hotpath",
    higher_is_better: bool = True,
    fingerprint: Optional[str] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    min_samples: int = MIN_STATISTICAL_SAMPLES,
    floor: float = FALLBACK_FLOOR,
    min_drop: float = MIN_MATERIAL_DROP,
    exclude_commit: Optional[str] = None,
) -> RegressionReport:
    """Gate ``current_cells`` against the recorded history.

    For every cell: collect its recorded samples (restricted to the given
    host ``fingerprint`` whenever that leaves at least ``min_samples``;
    cross-host samples otherwise, since a sparse history is better than
    none).  Samples recorded at ``exclude_commit`` are left out of the
    baseline: the CI flow appends the fresh measurement *before* gating,
    and a sample must not vouch for itself.  With ``n >= min_samples`` the gate is a one-sided Student-t
    prediction bound at ``confidence``::

        bound = mean - t_crit(confidence, n-1) * std * sqrt(1 + 1/n)

    (mirrored for lower-is-better cells) and a regression additionally
    requires the drop to exceed ``min_drop`` of the mean.  With fewer
    samples the multiplicative ``floor`` against the historical mean is the
    fallback; with no samples at all the cell is reported unchecked.
    """
    report = RegressionReport(bench=bench)
    for cell in sorted(current_cells):
        current = float(current_cells[cell])
        samples = history.cell_samples(cell, bench=bench, fingerprint=fingerprint)
        if fingerprint is not None and len(samples) < min_samples:
            samples = history.cell_samples(cell, bench=bench)
        if exclude_commit is not None:
            samples = [(e, v) for e, v in samples if e.commit != exclude_commit]
        values = [value for _entry, value in samples]
        n = len(values)
        if n == 0:
            report.findings.append(
                RegressionFinding(
                    cell=cell,
                    current=current,
                    method="no-history",
                    regressed=False,
                    samples=0,
                    message=f"{cell}: no recorded samples; not checked",
                )
            )
            continue
        mean = sum(values) / n
        ratio = current / mean if mean else None
        if n < min_samples:
            if higher_is_better:
                bound = mean * floor
                regressed = current < bound
            else:
                bound = mean / floor
                regressed = current > bound
            report.findings.append(
                RegressionFinding(
                    cell=cell,
                    current=current,
                    method="floor",
                    regressed=regressed,
                    mean=mean,
                    std=sample_std(values),
                    samples=n,
                    bound=bound,
                    ratio=ratio,
                    message=(
                        f"{cell}: {current:.0f} vs {n}-sample mean {mean:.0f} "
                        f"(floor gate at {bound:.0f}; <{min_samples} samples recorded)"
                    ),
                )
            )
            continue
        std = sample_std(values)
        half = t_critical(confidence, n - 1) * std * math.sqrt(1.0 + 1.0 / n)
        if higher_is_better:
            bound = mean - half
            material = mean * (1.0 - min_drop)
            regressed = current < bound and current < material
        else:
            bound = mean + half
            material = mean * (1.0 + min_drop)
            regressed = current > bound and current > material
        report.findings.append(
            RegressionFinding(
                cell=cell,
                current=current,
                method="statistical",
                regressed=regressed,
                mean=mean,
                std=std,
                samples=n,
                bound=bound,
                ratio=ratio,
                message=(
                    f"{cell}: {current:.0f} vs prediction bound {bound:.0f} "
                    f"(mean {mean:.0f} ± std {std:.0f} over n={n}, "
                    f"{confidence:.0%} one-sided)"
                ),
            )
        )
    return report


def trajectory_figure(
    history: PerfHistory,
    *,
    bench: str = "hotpath",
    cells: Optional[Sequence[str]] = None,
    fingerprint: Optional[str] = None,
    normalize: bool = True,
) -> FigureResult:
    """The recorded trajectory of each cell as a figure.

    X is the sample index in recording order (1 = oldest); one series per
    cell.  With ``normalize=True`` (the default) every series is divided by
    its own first recorded value, so the y axis reads as a speedup
    trajectory (1.0 = the first recorded measurement; for wall-clock
    benches the ratio is inverted so >1 still means faster).  Notes carry
    each series' latest-vs-first ratio.
    """
    entries = history.entries(bench=bench, fingerprint=fingerprint)
    if not entries:
        raise LookupError(f"perf history {history.path} has no {bench!r} entries")
    higher_is_better = entries[-1].higher_is_better
    if cells is None:
        seen: Dict[str, None] = {}
        for entry in entries:
            for cell in entry.cells:
                seen.setdefault(cell, None)
        cells = list(seen)
    series_list: List[Series] = []
    figure = FigureResult(
        figure_id="perf-trajectory",
        title=f"{bench} benchmark trajectory over {len(entries)} recorded runs",
        x_label="sample",
        y_label=("speedup vs first recorded sample" if normalize else entries[-1].unit),
        series=series_list,
    )
    for cell in cells:
        xs: List[float] = []
        ys: List[float] = []
        first: Optional[float] = None
        for index, entry in enumerate(entries, start=1):
            if cell not in entry.cells:
                continue
            value = entry.cells[cell]
            if normalize:
                if first is None:
                    first = value
                if not first:
                    continue
                ratio = value / first
                if not higher_is_better and ratio:
                    ratio = 1.0 / ratio
                ys.append(ratio)
            else:
                ys.append(value)
            xs.append(float(index))
        if not xs:
            continue
        series_list.append(Series(name=cell, x=xs, y=ys))
        if normalize and len(ys) > 1:
            figure.notes[f"{cell} latest_vs_first"] = ys[-1]
    return figure


def diff_breakdown(entry_a: PerfEntry, entry_b: PerfEntry) -> Dict[str, object]:
    """Profile-diff two recorded entries; names the layer that moved most.

    Returns a dict with:

    * ``layers``: ``{layer: {"a": frac, "b": frac, "delta": b - a}}`` over
      the union of both entries' ``layer_breakdown`` fractions,
    * ``moved_layer`` / ``moved_delta``: the layer with the largest
      absolute share shift (``None`` if either entry has no breakdown),
    * ``cells``: ``{cell: {"a": v, "b": v, "ratio": b/a}}`` over the cells
      both entries measured.
    """
    breakdown_a = entry_a.layer_breakdown or {}
    breakdown_b = entry_b.layer_breakdown or {}
    layers: Dict[str, Dict[str, float]] = {}
    for layer in sorted(set(breakdown_a) | set(breakdown_b)):
        a = breakdown_a.get(layer, 0.0)
        b = breakdown_b.get(layer, 0.0)
        layers[layer] = {"a": a, "b": b, "delta": b - a}
    moved_layer: Optional[str] = None
    moved_delta = 0.0
    if breakdown_a and breakdown_b:
        moved_layer = max(layers, key=lambda layer: abs(layers[layer]["delta"]))
        moved_delta = layers[moved_layer]["delta"]
    cells: Dict[str, Dict[str, float]] = {}
    for cell in sorted(set(entry_a.cells) & set(entry_b.cells)):
        a = entry_a.cells[cell]
        b = entry_b.cells[cell]
        cells[cell] = {"a": a, "b": b, "ratio": (b / a) if a else float("nan")}
    return {
        "a": entry_a.label(),
        "b": entry_b.label(),
        "layers": layers,
        "moved_layer": moved_layer,
        "moved_delta": moved_delta,
        "cells": cells,
    }
