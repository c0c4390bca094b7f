"""A mergeable relative-error latency sketch (DDSketch-style log buckets).

Following Masson, Rim & Lee (DDSketch, VLDB 2019), a positive value
``v`` goes to bucket ``i = ceil(log(v) / log(gamma))`` with
``gamma = (1 + ALPHA) / (1 - ALPHA)``, so bucket ``i`` covers
``(gamma**(i-1), gamma**i]``.  Reporting the bucket's representative
``2 * gamma**i / (gamma + 1)`` is then within relative error ``ALPHA`` of
every value in it, so a quantile is within ``ALPHA`` of the exact
inverted-CDF sample quantile.

Each bucket is an integer count, so :meth:`LogSketch.observe` is O(1),
memory grows with the logarithm of the value range, and
:meth:`LogSketch.merge` is exact: merging in any order gives the same
state as observing the union.  Non-finite and negative observations
raise :class:`~repro.obs.registry.MetricsError`, mirroring
:class:`~repro.obs.registry.Histogram`.
"""

import math
from typing import Dict

from repro.obs.registry import MetricsError

#: Relative accuracy of every reported quantile.
ALPHA = 0.01
GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(GAMMA)


class LogSketch:
    """Quantiles of a nonnegative stream within relative error ``ALPHA``."""

    __slots__ = ("_bins", "_zeros", "_count")

    def __init__(self) -> None:
        self._bins: Dict[int, int] = {}
        self._zeros = 0
        self._count = 0

    def observe(self, value: float) -> None:
        """Count one observation in its bucket."""
        if not 0.0 <= value < math.inf:
            raise MetricsError(
                f"sketch observation must be finite and >= 0, got {value}"
            )
        self._count += 1
        if value == 0.0:
            self._zeros += 1
            return
        index = math.ceil(math.log(value) / _LOG_GAMMA)
        bins = self._bins
        bins[index] = bins.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """The inverted-CDF ``q``-quantile (``nan`` before any observation)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self._count))
        seen = self._zeros
        if seen >= rank:
            return 0.0
        for index in sorted(self._bins):
            seen += self._bins[index]
            if seen >= rank:
                break
        return 2.0 * GAMMA ** index / (GAMMA + 1.0)

    def merge(self, other: "LogSketch") -> "LogSketch":
        """Add ``other``'s counts into this sketch; returns this sketch."""
        bins = self._bins
        for index, count in other._bins.items():
            bins[index] = bins.get(index, 0) + count
        self._zeros += other._zeros
        self._count += other._count
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogSketch):
            return NotImplemented
        return (self._zeros, self._bins) == (other._zeros, other._bins)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"LogSketch(n={self._count}, buckets={len(self._bins)})"
