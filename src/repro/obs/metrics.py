"""Process-wide metrics registry: counters, gauges, histograms.

:data:`METRICS` absorbs the stats that used to live only in scattered
per-run dicts -- evaluator cache hits/misses, dirty-region propagation
counts, variation-gate accept/reject, IVC retries -- so a long-lived
process (the warm-pool service, a sweep driver) can answer "what has this
process done so far" without re-aggregating records.  Producers feed it
through three verbs:

* :meth:`Metrics.count` -- monotonically increasing integer counters;
* :meth:`Metrics.gauge` -- last-write-wins floats (pool sizes, ratios);
* :meth:`Metrics.observe` -- streaming histograms keeping count/sum/min/max
  (enough for mean and extremes without storing samples).

:meth:`Metrics.snapshot` renders everything as one sorted, JSON-able dict;
:meth:`Metrics.absorb` bulk-adds the integer entries of a stats dict under a
name prefix (the one-liner the pipeline driver uses on ``cache_stats()``).

The registry is intentionally process-local: worker processes have their own
instance, and cross-process aggregation happens at the record level (the
per-job ``evaluator_cache`` / ``trace`` fields), keeping the pool protocol
untouched.  Like the rest of :mod:`repro.obs` it imports nothing from the
package, so any module may feed it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

__all__ = ["HistogramStats", "Metrics", "METRICS"]


@dataclass
class HistogramStats:
    """Streaming summary of one observed value series (no samples kept)."""

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_record(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "min": round(self.minimum, 9),
            "max": round(self.maximum, 9),
            "mean": round(self.mean, 9),
        }


class Metrics:
    """One registry of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramStats] = {}

    # -- producing ------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = HistogramStats()
        histogram.observe(value)

    def absorb(self, prefix: str, stats: Mapping[str, Any]) -> None:
        """Bulk-add every integer entry of ``stats`` as ``prefix.key`` counters.

        Non-integer values (nested dicts, floats, None) are skipped: the
        stats dicts this absorbs (``cache_stats()``, gate stats) mix counters
        with configuration echoes, and only the counters aggregate meaningfully.
        """
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            self.count(f"{prefix}.{key}", value)

    # -- consuming ------------------------------------------------------
    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float:
        return self._gauges.get(name, 0.0)

    def histogram(self, name: str) -> HistogramStats:
        return self._histograms.get(name, HistogramStats())

    def snapshot(self) -> Dict[str, Any]:
        """Everything, as one sorted JSON-able dict."""
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].to_record()
                for name in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        """Drop every metric (tests and benchmark harnesses)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry every producer feeds by default.
METRICS = Metrics()
