"""Metrics registry: counters, gauges and log-bucketed histograms.

The registry is the numeric side of the telemetry subsystem: while the
tracer answers *when* things happened, the registry answers *how often* and
*how long in distribution* — the quantities behind the paper's bandwidth
and redirect-fraction figures plus the tail percentiles (p50/p95/p99) that
ad-hoc stage totals cannot express.

Existing accounting objects (:class:`~repro.sim.counters.TransferCounters`,
:class:`~repro.faults.injector.FaultStats`) publish *into* a registry via
their ``publish`` methods without changing their own APIs; publishing adds
the object's current counts into the named counters.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from ..errors import TelemetryError
from ..state import Stateful, guard, scalar, seq


class Counter(Stateful):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    STATE_ERROR = TelemetryError
    STATE = (guard("kind"), scalar("value"))


class Gauge(Stateful):
    """A point-in-time value that can move in either direction."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise TelemetryError(
                f"gauge {self.name!r} rejects non-finite value {value}"
            )
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    STATE_ERROR = TelemetryError
    STATE = (guard("kind"), scalar("value", float))


class Histogram(Stateful):
    """Fixed log-spaced buckets with approximate percentiles.

    Bucket upper bounds are ``lo * 10**(k / buckets_per_decade)`` up to
    ``hi``, plus one overflow bucket — the classic Prometheus-style layout
    that keeps memory constant regardless of sample count while bounding
    percentile error to one bucket width (~33% at the default 8 buckets
    per decade, tight enough to separate p50 from a tail spike).

    Percentile queries return the upper bound of the bucket containing the
    requested rank, clamped to the exactly-tracked observed min/max.

    **Empty-percentile contract:** a histogram with no observations has no
    percentiles — :meth:`percentile` returns ``None`` and :meth:`to_dict`
    exports ``p50``/``p95``/``p99`` as ``None`` (JSON ``null``), matching
    the ``min``/``max`` treatment.  Earlier versions returned ``0.0``,
    which is indistinguishable from a real all-zero distribution and broke
    SLO rules like ``p99 > X`` on never-touched histograms.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        *,
        lo: float = 1e-7,
        hi: float = 100.0,
        buckets_per_decade: int = 8,
    ) -> None:
        if lo <= 0 or hi <= lo:
            raise TelemetryError("histogram bounds require 0 < lo < hi")
        if buckets_per_decade <= 0:
            raise TelemetryError("buckets_per_decade must be positive")
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = buckets_per_decade
        n = int(
            math.ceil(math.log10(hi / lo) * buckets_per_decade)
        ) + 1
        self.bounds = [
            lo * 10.0 ** (k / buckets_per_decade) for k in range(n)
        ]
        # counts[i] pairs with bounds[i]; counts[-1] is the overflow bucket.
        self.counts = [0] * (n + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if not math.isfinite(value) or value < 0:
            raise TelemetryError(
                f"histogram {self.name!r} rejects value {value}"
            )
        idx = bisect_left(self.bounds, value)
        self.counts[idx] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def percentile(self, p: float) -> float | None:
        """Approximate ``p``-th percentile (0 < p <= 100) of observations.

        Returns ``None`` when the histogram is empty (see the class
        docstring for the empty-percentile contract).
        """
        if not 0.0 < p <= 100.0:
            raise TelemetryError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return None
        rank = math.ceil(p / 100.0 * self.count)
        running = 0
        for idx, count in enumerate(self.counts):
            running += count
            if running >= rank:
                bound = (
                    self.bounds[idx]
                    if idx < len(self.bounds)
                    else self.max
                )
                return min(max(bound, self.min), self.max)
        raise AssertionError("unreachable: rank exceeds total count")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    STATE_ERROR = TelemetryError
    STATE = (
        guard("kind"),
        guard("lo"),
        guard("hi"),
        guard("buckets_per_decade"),
        seq(
            "counts", int,
            check=lambda self, counts: len(counts) != len(self.counts)
            and "bucket count does not match the layout",
        ),
        scalar("count", int),
        scalar("sum", float),
        scalar("min", float),
        scalar("max", float),
    )


class MetricsRegistry:
    """Named metric store with get-or-create accessors.

    Accessors are idempotent: asking twice for the same name returns the
    same object; asking for an existing name with a different metric kind
    raises :class:`~repro.errors.TelemetryError`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, **kwargs), "histogram"
        )

    def instruments(self) -> list[tuple[str, "Counter | Gauge | Histogram"]]:
        """``(name, instrument)`` pairs, sorted by name.

        The exposition renderers need the live objects (bucket bounds,
        raw counts), not the :meth:`to_dict` summaries.
        """
        return [(name, self._metrics[name]) for name in sorted(self._metrics)]

    def to_dict(self) -> dict:
        """JSON-ready ``{name: summary}`` mapping, sorted by name."""
        return {
            name: self._metrics[name].to_dict()
            for name in sorted(self._metrics)
        }

    def state_dict(self) -> dict:
        return {
            name: metric.state_dict()
            for name, metric in sorted(self._metrics.items())
        }

    def load_state_dict(self, state: dict) -> None:
        for name, stored in state.items():
            kind = stored.get("kind") if isinstance(stored, dict) else None
            if kind not in ("counter", "gauge", "histogram"):
                raise TelemetryError(
                    f"unknown metric kind {kind!r} for {name!r}"
                )
            # A histogram is created with the stored layout; an entry that
            # lacks part of it is reported by the histogram's own table.
            layout = ("lo", "hi", "buckets_per_decade")
            created = getattr(self, kind)(
                name,
                **{k: stored[k] for k in layout if k in stored}
                if kind == "histogram" else {},
            )
            created.load_state_dict(stored)
