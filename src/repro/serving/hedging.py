"""Hedged storage reads: duplicate the stragglers, cap the amplification.

The classic tail-at-scale trick: when a storage read takes longer than the
:data:`QUANTILE` (p95) of recent reads, issue a duplicate and take
whichever completes first.  A straggler caused by a transient tail spike
finishes at roughly the hedge point plus one *clean* service time,
clipping the latency tail without touching the median.

Amplification is bounded by a :class:`~repro.faults.retry.Budget` — the
same deadline-aware attempt-time arithmetic the training retry path uses.
The budget accrues :data:`BUDGET_FRACTION` of every request's base storage
time; a hedge spends the duplicate read's cost from it, so hedged device
time can never exceed that fraction of total device time no matter how
bursty the tail gets.
"""

from __future__ import annotations

from ..faults.retry import Budget
from ..state import Stateful, child, scalar
from ..telemetry.metrics import Histogram

#: Latency quantile (percent) after which a storage read is hedged.
QUANTILE = 95.0
#: Cap on hedge amplification, as a fraction of base storage time.
BUDGET_FRACTION = 0.1
#: Storage reads observed before hedging arms.
MIN_SAMPLES = 32


class HedgePolicy(Stateful):
    """Decides and accounts hedged reads for the serving storage path."""

    def __init__(self) -> None:
        #: Latency distribution of recent storage reads (log buckets; the
        #: p95 mark only needs bucket accuracy).
        self.latency = Histogram("serving.storage_read_s")
        self.budget = Budget(0.0)
        self.issued = 0
        self.won = 0

    @property
    def hedge_point_s(self) -> float | None:
        """Current hedge trigger (the :data:`QUANTILE` latency)."""
        if self.latency.count < MIN_SAMPLES:
            return None
        return self.latency.percentile(QUANTILE)

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
        self.budget.grant(BUDGET_FRACTION * duplicate_cost_s)
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
