"""Admission control and load shedding for the serving front door.

Three gates run in order at each arrival, cheapest first:

1. **Token-bucket shedding with priority tiers.**  The bucket refills at a
   configured (or capacity-adaptive) rate; a request costs one token, and
   lower tiers need the bucket fuller than higher tiers — ``shed_reserve``
   of the depth is kept for more important traffic — so as load climbs past
   the refill rate, ``low`` sheds first, then ``normal``, and ``high`` only
   when the bucket is truly dry.
2. **Bounded queue.**  Overflow beyond ``queue_capacity`` is rejected
   outright; an unbounded queue is exactly the failure mode this layer
   exists to prevent.
3. **Deadline-aware early rejection.**  Using the running service-time
   estimate, a request whose *predicted* completion already misses its
   deadline is rejected at admission instead of doing the work and missing
   anyway (the wasted work would also delay everyone behind it).

Every verdict is counted, so the shed rate is a published metric.
"""

from __future__ import annotations

from ..state import Stateful, child, scalar
from .config import PRIORITIES, ServingConfig

#: Admission verdicts.
ADMIT = "admit"
SHED = "shed"
REJECT_QUEUE = "reject_queue"
REJECT_DEADLINE = "reject_deadline"

#: EWMA smoothing for the service-time estimate.
_EWMA_ALPHA = 0.1


class TokenBucket(Stateful):
    """Deterministic token bucket over modeled time, with tier reserves."""

    STATE = (
        scalar("rate", float, optional=True),
        scalar("tokens", float),
        scalar("last_refill_s", float),
    )

    def __init__(
        self,
        rate: float | None,
        burst: float,
        reserve: float,
    ) -> None:
        self.rate = rate  # None = adaptive (set_rate called by the server)
        self.burst = float(burst)
        self.reserve = float(reserve)
        self.tokens = float(burst)
        self.last_refill_s = 0.0

    def set_rate(self, rate: float) -> None:
        """Update the refill rate (adaptive capacity tracking)."""
        self.rate = float(rate)

    def refill(self, now_s: float) -> None:
        if now_s <= self.last_refill_s:
            return
        if self.rate is not None:
            self.tokens = min(
                self.burst,
                self.tokens + self.rate * (now_s - self.last_refill_s),
            )
        self.last_refill_s = now_s

    def threshold(self, priority: int) -> float:
        """Bucket level required to admit the given tier.

        Tier 0 (``high``) needs one token; each lower tier additionally
        needs its share of the reserved headroom to still be present.
        """
        tiers = len(PRIORITIES)
        if tiers == 1:
            return 1.0
        depth = self.reserve * self.burst
        return 1.0 + depth * priority / (tiers - 1)

    def try_take(self, priority: int, now_s: float) -> bool:
        """Refill to ``now_s`` and take one token if the tier may."""
        self.refill(now_s)
        if self.rate is None:
            return True  # Adaptive bucket not calibrated yet: admit.
        if self.tokens < self.threshold(priority):
            return False
        self.tokens -= 1.0
        return True


class AdmissionController(Stateful):
    """Applies the three admission gates and keeps the service estimate."""

    STATE = (
        child("bucket"),
        scalar("service_estimate_s", float, optional=True),
    )

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self.bucket = TokenBucket(
            config.shed_rate, config.shed_burst, config.shed_reserve
        )
        #: EWMA of observed service times (None until the first completion).
        self.service_estimate_s: float | None = None

    def observe_service(self, service_s: float) -> None:
        """Fold one completed request's service time into the estimate."""
        if self.service_estimate_s is None:
            self.service_estimate_s = float(service_s)
        else:
            self.service_estimate_s += _EWMA_ALPHA * (
                float(service_s) - self.service_estimate_s
            )
        if self.config.shed_rate is None and self.service_estimate_s > 0:
            # Adaptive shedding: track measured capacity, admitting the
            # configured utilization of it.
            self.bucket.set_rate(
                self.config.shed_utilization / self.service_estimate_s
            )

    def decide(
        self,
        priority: int,
        arrival_s: float,
        deadline_s: float,
        queue_len: int,
        backlog_s: float,
    ) -> str:
        """Admission verdict for one arriving request.

        Args:
            priority: the request's tier index.
            arrival_s: its arrival time (modeled).
            deadline_s: its deadline, relative to arrival.
            queue_len: requests currently waiting.
            backlog_s: modeled time until the server frees up (current
                in-service remainder; the queued requests are costed from
                the service estimate).
        """
        if not self.bucket.try_take(priority, arrival_s):
            return SHED
        if queue_len >= self.config.queue_capacity:
            return REJECT_QUEUE
        estimate = self.service_estimate_s
        if estimate is not None:
            predicted_wait = backlog_s + queue_len * estimate
            predicted_latency = (
                predicted_wait * self.config.admission_safety + estimate
            )
            if predicted_latency > deadline_s:
                return REJECT_DEADLINE
        return ADMIT
