"""Hedged storage reads: duplicate the stragglers, cap the amplification.

The classic tail-at-scale trick: when a storage read takes longer than the
p95 of recent reads, issue a duplicate and take whichever completes first.
A straggler caused by a transient tail spike finishes at roughly the hedge
point plus one *clean* service time, clipping the latency tail without
touching the median.

Amplification is bounded by a :class:`~repro.faults.retry.Budget` — the
same deadline-aware attempt-time arithmetic the training retry path uses.
The budget accrues ``hedge_budget_fraction`` of every request's base
storage time; a hedge spends the duplicate read's cost from it, so hedged
device time can never exceed the configured fraction of total device time
no matter how bursty the tail gets.
"""

from __future__ import annotations

from ..faults.retry import Budget
from ..state import Stateful, child, scalar
from ..telemetry.metrics import Histogram
from .config import ServingConfig


class HedgePolicy(Stateful):
    """Decides and accounts hedged reads for the serving storage path."""

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        #: Latency distribution of recent storage reads (log buckets; the
        #: p95 mark only needs bucket accuracy).
        self.latency = Histogram("serving.storage_read_s")
        self.budget = Budget(0.0)
        self.issued = 0
        self.won = 0

    @property
    def hedge_point_s(self) -> float | None:
        """Current hedge trigger (the configured latency quantile)."""
        if self.latency.count < self.config.hedge_min_samples:
            return None
        return self.latency.percentile(self.config.hedge_quantile)

    def maybe_hedge(
        self, read_latency_s: float, duplicate_cost_s: float
    ) -> float:
        """Return the (possibly improved) latency of one storage read.

        Args:
            read_latency_s: the primary read's modeled latency, tail
                included.
            duplicate_cost_s: modeled service time a duplicate read would
                take (the clean batch service time).
        """
        self.budget.grant(self.config.hedge_budget_fraction * duplicate_cost_s)
        point = self.hedge_point_s
        final = read_latency_s
        if (
            point is not None
            and read_latency_s > point
            and self.budget.try_spend(duplicate_cost_s)
        ):
            self.issued += 1
            hedged = point + duplicate_cost_s
            if hedged < final:
                self.won += 1
                final = hedged
        self.latency.observe(final)
        return final

    STATE = (
        child("latency"),
        child("budget"),
        scalar("issued", int),
        scalar("won", int),
    )
