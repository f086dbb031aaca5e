"""Replication statistics: means, spreads and confidence intervals.

The paper reports 90 % confidence intervals over five replications for every
data point (e.g. "the 90% confidence intervals of all protocols are within
±2.3%").  These helpers compute the same quantities for
:class:`~repro.orchestrator.api.ExperimentResult` replications.  The
Student-t critical values are exact and use the standard library only
(bisection on the regularized incomplete beta function), so an interval
never depends on which optional packages are installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

#: Lentz's continued fraction stops once a step changes the value by less
#: than this relative amount, or after ``_MAX_FRACTION_TERMS`` terms;
#: ``_TINY`` keeps its denominators off zero.
_FRACTION_EPS = 1e-15
_MAX_FRACTION_TERMS = 10_000
_TINY = 1e-300


@dataclass(frozen=True)
class IntervalEstimate:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    samples: int

    @property
    def low(self) -> float:
        """Lower bound of the confidence interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the confidence interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} ({self.confidence:.0%} CI, n={self.samples})"


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    if not values:
        raise ValueError("cannot average an empty sequence")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0 for fewer than 2 values."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values) / (len(values) - 1))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    value = d
    for m in range(1, _MAX_FRACTION_TERMS):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _TINY else _TINY
            step = c * d
            value *= step
        if abs(step - 1.0) < _FRACTION_EPS:
            break
    return value


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, given ``y = 1 - x`` exactly.

    Passing ``y`` separately keeps full precision when ``x`` is close to 1.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    # The fraction converges fast only below its mean; use the symmetry
    # I_x(a, b) = 1 - I_y(b, a) above it.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _t_two_sided_tail(t: float, dof: int) -> float:
    """``P(|T| > t)`` for a Student-t variable with ``dof`` degrees of freedom."""
    t2 = t * t
    return _incomplete_beta(dof / 2.0, 0.5, dof / (dof + t2), t2 / (dof + t2))


def _t_critical(confidence: float, dof: int) -> float:
    """The ``t`` with ``P(|T| <= t) = confidence``, bisected to machine precision."""
    if dof <= 0:
        return 0.0
    alpha = 1.0 - confidence
    low, high = 0.0, 1.0
    while _t_two_sided_tail(high, dof) > alpha:
        low, high = high, 2.0 * high
    while True:
        middle = 0.5 * (low + high)
        if not low < middle < high:
            return high
        if _t_two_sided_tail(middle, dof) > alpha:
            low = middle
        else:
            high = middle


def t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value for ``confidence`` at ``dof``.

    Public entry point for consumers outside this module (the perf-history
    regression check uses it to build prediction bounds).  Exact to about
    1e-10 relative error: the quantile is bisected on the regularized
    incomplete beta function, using the standard library only.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    return _t_critical(confidence, dof)


def confidence_interval(values: Sequence[float], confidence: float = 0.9) -> IntervalEstimate:
    """Student-t confidence interval of the mean of ``values``.

    With a single replication the half-width is 0 (there is no spread
    information), matching how single-run sweeps are reported.
    """
    if not values:
        raise ValueError("cannot build a confidence interval from no samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    centre = mean(values)
    n = len(values)
    if n == 1:
        return IntervalEstimate(mean=centre, half_width=0.0, confidence=confidence, samples=1)
    spread = sample_std(values)
    half_width = _t_critical(confidence, n - 1) * spread / math.sqrt(n)
    return IntervalEstimate(mean=centre, half_width=half_width, confidence=confidence, samples=n)


def interval_from_runs(
    runs: Sequence[object], metric: Callable[[object], float], confidence: float = 0.9
) -> IntervalEstimate:
    """Confidence interval of ``metric(run)`` over a sequence of run objects."""
    return confidence_interval([metric(run) for run in runs], confidence=confidence)
