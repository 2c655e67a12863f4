"""Admission control and load shedding for the serving front door.

Three gates run in order at each arrival, cheapest first:

1. **Token-bucket shedding with priority tiers.**  The bucket refills at
   :data:`SHED_UTILIZATION` of the measured service rate; a request costs
   one token, and lower tiers need the bucket fuller than higher tiers —
   :data:`SHED_RESERVE` of the depth is kept for more important traffic —
   so as load climbs past the refill rate, ``low`` sheds first, then
   ``normal``, and ``high`` only when the bucket is truly dry.
2. **Bounded queue.**  Overflow beyond :data:`QUEUE_CAPACITY` is rejected
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
from .config import PRIORITIES

#: Admission verdicts.
ADMIT = "admit"
SHED = "shed"
REJECT_QUEUE = "reject_queue"
REJECT_DEADLINE = "reject_deadline"

#: EWMA smoothing for the service-time estimate.
_EWMA_ALPHA = 0.1

#: Bound on waiting requests (admission overflow rejects beyond it).
QUEUE_CAPACITY = 64
#: Token-bucket depth.
SHED_BURST = 32.0
#: Fraction of the bucket reserved for higher tiers.
SHED_RESERVE = 0.3
#: Fraction of the measured capacity the refill admits.
SHED_UTILIZATION = 0.95


class TokenBucket(Stateful):
    """Deterministic token bucket over modeled time, with tier reserves.

    The refill tracks measured capacity: ``rate`` stays ``None`` — and the
    bucket admits everything — until the server's first completed request
    calibrates it through :meth:`set_rate`.
    """

    STATE = (
        scalar("rate", float, optional=True),
        scalar("tokens", float),
        scalar("last_refill_s", float),
    )

    def __init__(self) -> None:
        self.rate: float | None = None
        self.tokens = SHED_BURST
        self.last_refill_s = 0.0

    def set_rate(self, rate: float) -> None:
        """Update the refill rate (adaptive capacity tracking)."""
        self.rate = float(rate)

    def refill(self, now_s: float) -> None:
        if now_s <= self.last_refill_s:
            return
        if self.rate is not None:
            self.tokens = min(
                SHED_BURST,
                self.tokens + self.rate * (now_s - self.last_refill_s),
            )
        self.last_refill_s = now_s

    @staticmethod
    def threshold(priority: int) -> float:
        """Bucket level required to admit the given tier.

        Tier 0 (``high``) needs one token; each lower tier additionally
        needs its share of the reserved headroom to still be present.
        """
        depth = SHED_RESERVE * SHED_BURST
        return 1.0 + depth * priority / (len(PRIORITIES) - 1)

    def try_take(self, priority: int, now_s: float) -> bool:
        """Refill to ``now_s`` and take one token if the tier may."""
        self.refill(now_s)
        if self.rate is None:
            return True  # Not calibrated yet: admit.
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

    def __init__(self) -> None:
        self.bucket = TokenBucket()
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
        if self.service_estimate_s > 0:
            # Adaptive shedding: track measured capacity, admitting
            # SHED_UTILIZATION of it.
            self.bucket.set_rate(SHED_UTILIZATION / self.service_estimate_s)

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
        if queue_len >= QUEUE_CAPACITY:
            return REJECT_QUEUE
        estimate = self.service_estimate_s
        if estimate is not None:
            predicted_wait = backlog_s + queue_len * estimate
            if predicted_wait + estimate > deadline_s:
                return REJECT_DEADLINE
        return ADMIT
