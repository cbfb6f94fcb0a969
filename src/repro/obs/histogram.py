"""The fixed-bucket latency histogram shared by the server and ``repro.obs``.

Request latencies (:mod:`repro.server.metrics`), per-span durations
(:mod:`repro.obs.tracer`) and per-request CPU (:mod:`repro.obs.resources`)
all use :class:`LatencyHistogram` over the same logarithmic
:data:`LATENCY_BUCKETS` (1 ms … 10 s), so one Prometheus renderer serves
them all.  Percentiles are read off the cumulative bucket counts and
reported as the upper bound of the bucket containing the percentile — an
upper-bound estimate, exactly like Prometheus ``histogram_quantile``.
The exact observed maximum is tracked alongside (a bucketed estimate
alone undercounts the tail: every outlier past the last bound would read
as "10 s"), and snapshots carry the bucket ``bounds`` so dashboards need
not hard-code them.

The histogram takes no lock: each owner mutates and snapshots it under
its own.  It lives here rather than in the server because ``repro.obs``
must not import server modules.
"""

from __future__ import annotations

from typing import Any

__all__ = ["LATENCY_BUCKETS", "LatencyHistogram"]

#: Upper bounds (seconds) of the histogram buckets.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates."""

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_max")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS):
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if seconds <= bound:
                index = i
                break
        self._counts[index] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    def quantile(self, q: float) -> float | None:
        """Upper-bound estimate of the q-quantile (None when empty)."""
        if self._count == 0:
            return None
        target = q * self._count
        cumulative = 0
        for i, bound in enumerate(self._bounds):
            cumulative += self._counts[i]
            if cumulative >= target:
                return bound
        return self._max

    def snapshot(self) -> dict[str, Any]:
        buckets = {
            f"le_{bound:g}": self._counts[i]
            for i, bound in enumerate(self._bounds)
        }
        buckets["le_inf"] = self._counts[-1]
        return {
            "count": self._count,
            "sum_seconds": self._sum,
            "max_seconds": self._max,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "bounds": list(self._bounds),
            "buckets": buckets,
        }
