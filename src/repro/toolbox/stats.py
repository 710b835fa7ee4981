"""Statistical routines ("Interpreting Measurements", §5).

The paper calls for mean/deviation/median/extrema, correlation, and —
because observations stream in over time — *incremental* operation with
low space overhead.  Table 1 additionally names the techniques prior
gray-box systems used: mean and variance (TCP), linear regression,
exponential averaging, and the paired-sample sign test (MS Manners);
all are provided here.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple


class OnlineStats:
    """Welford's incremental mean/variance plus running extrema.

    O(1) space: suitable for the continuous monitoring the toolbox
    requires.  Medians need sample storage; use :class:`SampleStats`.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> "OnlineStats":
        for value in values:
            self.add(value)
        return self

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for fewer than 2 points."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two accumulators (Chan et al. parallel form)."""
        merged = OnlineStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        extrema = [
            v
            for v in (self.minimum, self.maximum, other.minimum, other.maximum)
            if v is not None
        ]
        if extrema:
            merged.minimum = min(extrema)
            merged.maximum = max(extrema)
        return merged


class SampleStats:
    """Statistics over a retained sample (adds median and percentiles)."""

    def __init__(self, values: Optional[Iterable[float]] = None) -> None:
        self.values: List[float] = list(values) if values is not None else []

    def add(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError("no samples")
        return sum(self.values) / len(self.values)

    @property
    def stdev(self) -> float:
        n = len(self.values)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((v - mean) ** 2 for v in self.values) / (n - 1))

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, ``pct`` in [0, 100]."""
        if not self.values:
            raise ValueError("no samples")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile {pct} out of range")
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        rank = pct / 100.0 * (len(ordered) - 1)
        low = int(rank)
        frac = rank - low
        if low + 1 >= len(ordered):
            return ordered[-1]
        value = ordered[low] * (1 - frac) + ordered[low + 1] * frac
        # Clamp: interpolating between near-equal floats can overshoot
        # by an ulp, and callers rely on min <= percentile <= max.
        return min(max(value, ordered[low]), ordered[low + 1])


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson r; returns 0.0 when either side is constant.

    Figure 1 of the paper plots exactly this: correlation between "the
    probed page is present" and "the fraction of the prediction unit
    present".
    """
    if len(xs) != len(ys):
        raise ValueError("correlation needs equal-length sequences")
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    # sqrt each side first: ``var_x * var_y`` can underflow to 0.0 when
    # both are tiny.  Subnormal variances lose precision, so clamp.
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    if denominator == 0.0:
        return 0.0
    return max(-1.0, min(1.0, cov / denominator))


def linear_regression(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit; returns (slope, intercept)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("regression needs two or more paired samples")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("regression needs varying x values")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def exponential_average(
    values: Iterable[float], alpha: float, initial: Optional[float] = None
) -> float:
    """Exponentially weighted average with smoothing factor ``alpha``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    average = initial
    for value in values:
        average = value if average is None else alpha * value + (1 - alpha) * average
    if average is None:
        raise ValueError("no values")
    return average


def sign_test(pairs: Iterable[Tuple[float, float]]) -> Tuple[int, int, float]:
    """Paired-sample sign test (MS Manners' contention detector).

    Returns ``(positives, negatives, p_value)`` where the p-value is the
    two-sided binomial probability of a split at least this lopsided
    under the null hypothesis that neither side of a pair tends larger.
    Ties are discarded, as is standard.
    """
    positives = 0
    negatives = 0
    for first, second in pairs:
        if first > second:
            positives += 1
        elif second > first:
            negatives += 1
    n = positives + negatives
    if n == 0:
        return 0, 0, 1.0
    k = min(positives, negatives)
    # Two-sided: P(X <= k) + P(X >= n - k) for X ~ Binomial(n, 1/2).
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n
    p_value = min(1.0, 2.0 * tail)
    return positives, negatives, p_value
