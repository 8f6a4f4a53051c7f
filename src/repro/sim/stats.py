"""Statistics helpers for simulation output analysis.

Provides

* :class:`TimeWeightedStat` -- integrates a piecewise-constant signal over
  simulated time (used for availability: fraction of time a predicate held);
* :class:`RunningStat` -- Welford one-pass mean/variance;
* :func:`batch_means` / :class:`ConfidenceInterval` -- steady-state
  confidence intervals from a single long run via the batch-means method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import StatSealedError

__all__ = [
    "TimeWeightedStat",
    "RunningStat",
    "ConfidenceInterval",
    "batch_means",
]


class TimeWeightedStat:
    """Time integral of a piecewise-constant real-valued signal.

    Typical use is boolean availability: feed 1.0 while the replicated
    block is available and 0.0 while it is not; :meth:`mean` then yields
    the simulated availability.

    >>> stat = TimeWeightedStat(initial_value=1.0, start_time=0.0)
    >>> stat.update(0.0, at_time=10.0)   # went down at t=10
    >>> stat.update(1.0, at_time=15.0)   # repaired at t=15
    >>> stat.finalize(at_time=20.0)
    >>> stat.mean()
    0.75

    :meth:`finalize` seals the stat: further updates (and a second
    finalize) raise rather than silently integrating past the declared
    end of the run.  An *incremental* observer -- one that reads the
    mean mid-run and keeps observing, like the cluster's availability
    probe -- uses :meth:`extend_to` instead, which advances the
    integral without sealing.
    """

    def __init__(
        self, initial_value: float = 0.0, start_time: float = 0.0
    ) -> None:
        self._value = float(initial_value)
        self._last_time = float(start_time)
        self._start_time = float(start_time)
        self._integral = 0.0
        self._finalized = False

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    @property
    def elapsed(self) -> float:
        """Total observed time span."""
        return self._last_time - self._start_time

    @property
    def finalized(self) -> bool:
        """Whether the stat has been sealed by :meth:`finalize`."""
        return self._finalized

    def update(self, value: float, at_time: float) -> None:
        """Record that the signal changed to ``value`` at ``at_time``."""
        if self._finalized:
            raise StatSealedError(
                "TimeWeightedStat is finalized; updates after the end "
                "of the run would corrupt the integral"
            )
        if at_time < self._last_time:
            raise ValueError(
                f"time went backwards: {at_time} < {self._last_time}"
            )
        self._integral += self._value * (at_time - self._last_time)
        self._last_time = at_time
        self._value = float(value)

    def extend_to(self, at_time: float) -> None:
        """Advance the integral to ``at_time`` without sealing the stat.

        For incremental observers that read the mean mid-run and keep
        updating afterwards; :meth:`finalize` is the end-of-run form.
        """
        self.update(self._value, at_time)

    def finalize(self, at_time: float) -> None:
        """Extend the current value up to ``at_time`` and seal the stat."""
        if self._finalized:
            raise StatSealedError("TimeWeightedStat is already finalized")
        self.update(self._value, at_time)
        self._finalized = True

    def integral(self) -> float:
        """The accumulated integral of the signal."""
        return self._integral

    def mean(self) -> float:
        """Time-weighted mean of the signal over the observed span."""
        if self.elapsed <= 0:
            return self._value
        return self._integral / self.elapsed


class RunningStat:
    """One-pass mean and variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        """Add one observation."""
        self._count += 1
        delta = x - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (x - self._mean)

    def extend(self, xs: Sequence[float]) -> None:
        """Add a sequence of observations."""
        for x in xs:
            self.add(x)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for fewer than 2 points."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self._count == 0:
            return 0.0
        return self.stddev / math.sqrt(self._count)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``mean +/- half_width``."""

    mean: float
    half_width: float
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.6f} +/- {self.half_width:.6f} "
            f"({self.confidence:.0%} CI)"
        )


def batch_means(
    samples: Sequence[float],
    num_batches: int = 10,
    confidence: float = 0.95,
) -> Optional[ConfidenceInterval]:
    """Batch-means confidence interval for a (possibly correlated) series.

    Splits the series into ``num_batches`` contiguous batches; batch means
    are approximately independent for long batches, so a Student-t interval
    on them estimates the steady-state mean.  Returns ``None`` when there
    are too few samples to form at least two batches.
    """
    n = len(samples)
    if num_batches < 2 or n < 2 * num_batches:
        return None
    batch_size = n // num_batches
    means: List[float] = []
    for b in range(num_batches):
        batch = samples[b * batch_size : (b + 1) * batch_size]
        means.append(sum(batch) / len(batch))
    stat = RunningStat()
    stat.extend(means)
    # Imported here: scipy.stats costs most of ``import repro``.
    from scipy import stats

    t_crit = stats.t.ppf(0.5 + confidence / 2.0, df=num_batches - 1)
    return ConfidenceInterval(
        mean=stat.mean,
        half_width=float(t_crit) * stat.stderr,
        confidence=confidence,
    )
