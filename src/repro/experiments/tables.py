"""Plain-text rendering of figure series.

The paper's evaluation is presented as line plots; this module renders the
same data as aligned ASCII tables (x values in rows, one column per series)
so the benchmark harness can print exactly the rows a plot would show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Series:
    """One line of a figure: a label plus y-values over the shared x-axis."""

    name: str
    x: List[float]
    y: List[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r} has {len(self.x)} x-values but {len(self.y)} y-values"
            )

    def value_at(self, x: float) -> Optional[float]:
        """The y-value at ``x``, or ``None`` when that x was not measured."""
        for xi, yi in zip(self.x, self.y, strict=True):
            if xi == x:
                return yi
        return None


@dataclass
class FigureResult:
    """All series reproducing one of the paper's figures."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    #: Free-form extra results (e.g. knee position, reduction percentages).
    notes: Dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> Series:
        """Return the series called ``name``."""
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"figure {self.figure_id} has no series named {name!r}")

    def series_names(self) -> List[str]:
        """Names of all series, in insertion order."""
        return [series.name for series in self.series]

    def x_values(self) -> List[float]:
        """The union of all x-values, sorted."""
        values = sorted({x for series in self.series for x in series.x})
        return values

    def to_table(self) -> str:
        """Render the figure as an aligned plain-text table."""
        float_format = "{:.4g}"
        header = [self.x_label, *self.series_names()]
        rows: List[List[str]] = []
        for x in self.x_values():
            row = [float_format.format(x)]
            for series in self.series:
                value = series.value_at(x)
                row.append("-" if value is None else float_format.format(value))
            rows.append(row)
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"{self.figure_id}: {self.title}",
            f"  ({self.y_label} vs {self.x_label})",
            "  " + "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  " + "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for row in rows:
            lines.append("  " + "  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        if self.notes:
            lines.append("  notes:")
            for key, value in self.notes.items():
                lines.append(f"    {key} = {float_format.format(value)}")
        return "\n".join(lines)


def comparison_table(results: Dict[str, Dict[str, float]], metric_names: Sequence[str]) -> str:
    """Render a {row-label: {metric: value}} mapping as an aligned table."""
    header = ["protocol", *metric_names]
    rows = []
    for label, metrics in results.items():
        rows.append(
            [label, *("{:.4g}".format(metrics.get(name, float("nan"))) for name in metric_names)]
        )
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
