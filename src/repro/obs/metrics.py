"""Metrics registry: counters, gauges, streaming-quantile histograms, views.

Every tier publishes under stable dotted names into one
:class:`MetricsRegistry` (see the README's metric table): the serving
layer's counters live at ``serve.*``, component snapshots are *views* —
zero-cost lambdas evaluated only when read — at ``serve.result_cache.*``,
``serve.mshr.*``, ``serve.batcher.*`` and ``serve.breaker.*``, and the
executed backend publishes ``exec.*``.  Views keep the hot path free:
registering one does not touch the component it reads.  A component that
holds the registry it publishes into registers its views through
:func:`owner_view`, which holds it weakly, so dropping it frees it
without the cyclic collector.

:class:`Histogram` tracks count/sum/min/max exactly and quantiles
approximately via the P² streaming estimator (Jain & Chlamtac, CACM
1985) — O(1) memory per tracked quantile, no sample retention, numpy
used only for the exact small-count fallback.

:func:`percentile` is the one shared exact-percentile helper (serve
stats, workload reports, the planner's report consumers all route
through it).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "owner_view",
    "percentile",
]


def percentile(values: Iterable[float], p: float) -> float:
    """Exact percentile of ``values`` (``numpy.percentile``; empty → 0.0).

    The single shared implementation of the latency-percentile idiom:
    ``float(np.percentile(np.asarray(values, dtype=np.float64), p))``
    with the empty population mapped to 0.0 — bit-identical to the
    expressions it replaced in ``ServeStats`` and ``workload._report``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, p))


def owner_view(owner: Any, read: Callable[[Any], Any]) -> Callable[[], Any]:
    """A view reading ``read(owner)`` that holds ``owner`` weakly.

    A view closing over its owner, registered in a registry the owner
    holds, is a reference cycle: a dropped owner, and everything it holds,
    would wait for a cyclic-GC pass.  Once the owner is gone the view
    reads ``None``.
    """
    ref = weakref.ref(owner)

    def view() -> Any:
        obj = ref()
        return None if obj is None else read(obj)

    return view


@dataclass
class Counter:
    """Monotonic-by-convention scalar (int stays int; floats allowed)."""

    name: str
    value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins scalar."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class _P2Quantile:
    """One P² streaming quantile estimator (five markers, O(1) memory)."""

    def __init__(self, q: float):
        self.q = float(q)
        self.count = 0
        self._heights: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._incr = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, x: float) -> None:
        self.count += 1
        h = self._heights
        if self.count <= 5:
            h.append(x)
            h.sort()
            return
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._incr[i]
        for i in (1, 2, 3):
            d = self._desired[i] - self._pos[i]
            right_gap = self._pos[i + 1] - self._pos[i]
            left_gap = self._pos[i - 1] - self._pos[i]
            if (d >= 1.0 and right_gap > 1.0) or (d <= -1.0 and left_gap < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                cand = self._parabolic(i, step)
                h[i] = cand if h[i - 1] < cand < h[i + 1] else self._linear(i, step)
                self._pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        n, h = self._pos, self._heights
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        j = i + int(d)
        n, h = self._pos, self._heights
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current estimate (exact while ≤ 5 samples; 0.0 when empty)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            return percentile(self._heights, 100.0 * self.q)
        return self._heights[2]


class Histogram:
    """Streaming distribution summary: exact moments + P² quantiles."""

    def __init__(self, name: str, quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)):
        self.name = name
        self.quantiles = tuple(float(q) for q in quantiles)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._estimators = {q: _P2Quantile(q) for q in self.quantiles}

    def observe(self, x: float) -> None:
        x = float(x)
        self.count += 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        for est in self._estimators.values():
            est.observe(x)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate for a tracked quantile (KeyError for untracked)."""
        return self._estimators[float(q)].value

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        for q in self.quantiles:
            out[f"p{100.0 * q:g}"] = self._estimators[q].value
        return out


class MetricsRegistry:
    """Name → metric store with lazy derived views.

    ``counter``/``gauge``/``histogram`` are get-or-create (TypeError on a
    kind mismatch, so one dotted name always means one thing).
    ``register_view`` maps a name to a zero-argument callable evaluated
    at read time; re-registering a view replaces it (components that are
    rebuilt re-register), but a view can never shadow a concrete metric
    or vice versa.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._views: dict[str, Callable[[], Any]] = {}

    def __len__(self) -> int:
        return len(self._metrics) + len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics or name in self._views

    def _create(self, name: str, kind: type, **kwargs: Any):
        metric = self._metrics.get(name)
        if metric is None:
            if name in self._views:
                raise TypeError(f"{name!r} is already registered as a view")
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"{name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._create(name, Gauge)

    def histogram(
        self, name: str, quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)
    ) -> Histogram:
        return self._create(name, Histogram, quantiles=quantiles)

    def register_view(self, name: str, fn: Callable[[], Any]) -> None:
        if name in self._metrics:
            raise TypeError(f"{name!r} is already a concrete metric")
        self._views[name] = fn

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Every registered dotted name, sorted."""
        return sorted(set(self._metrics) | set(self._views))

    def value(self, name: str) -> Any:
        """Current value: scalar for counters/gauges/views, dict for
        histograms (KeyError for unknown names)."""
        metric = self._metrics.get(name)
        if metric is not None:
            if isinstance(metric, Histogram):
                return metric.snapshot()
            return metric.value
        return self._views[name]()

    def snapshot(self) -> dict[str, Any]:
        """Evaluate everything into one flat name → value dict."""
        return {name: self.value(name) for name in self.names()}
