"""Retry/backoff policy and shared attempt-time budget, in modeled time.

When an injected fault fails a GPU-initiated read, the loader does what a
production storage stack would: retry with bounded exponential backoff,
give up after ``max_retries`` attempts, and stop burning time once the
per-batch retry budget is exhausted.  Every second spent here is
*simulated* time, charged to the loader's aggregation stage — the Python
process never sleeps.

:class:`Budget` is the deadline-aware heart of that bookkeeping, factored
out so *every* extra-attempt mechanism — training retries here, hedged
reads in the serving layer — caps its amplification with the same
total-attempt-time arithmetic and the two paths cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..state import Stateful, scalar
from ..utils import require_finite


class Budget(Stateful):
    """A spendable cap on cumulative modeled attempt time.

    The cap is on *time*, not attempt count: a mechanism may issue as many
    extra attempts as it likes while their modeled cost fits, and stops the
    moment the next attempt would not.  ``try_spend`` is the only gate —
    it either books the cost atomically or leaves the budget untouched, so
    callers never half-charge an attempt.

    ``grant`` lets long-lived users (the serving hedge policy) accrue
    headroom continuously, turning the same object into a token bucket
    denominated in seconds; one-shot users (the per-batch retry loop)
    construct it with their full allowance and never top it up.
    """

    def __init__(self, total_s: float) -> None:
        self.total_s = require_finite("budget total_s", total_s, minimum=0.0)
        self.spent_s = 0.0

    @property
    def remaining_s(self) -> float:
        return max(0.0, self.total_s - self.spent_s)

    def can_spend(self, cost_s: float) -> bool:
        """Would ``cost_s`` fit in the remaining allowance?"""
        if cost_s < 0:
            raise ConfigError(f"cost must be non-negative, got {cost_s}")
        return self.spent_s + cost_s <= self.total_s

    def try_spend(self, cost_s: float) -> bool:
        """Book ``cost_s`` if it fits; return whether it did."""
        if not self.can_spend(cost_s):
            return False
        self.spent_s += cost_s
        return True

    def grant(self, extra_s: float) -> None:
        """Raise the cap by ``extra_s`` (continuous-accrual users)."""
        self.total_s += require_finite(
            "budget grant", extra_s, minimum=0.0
        )

    STATE = (scalar("total_s", float), scalar("spent_s", float))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter.

    Args:
        max_retries: re-issue attempts after the initial failure; 0 means
            fail straight to the fallback path (or raise).
        backoff_base_s: modeled wait before the first retry.
        backoff_multiplier: growth factor per subsequent retry round.
        backoff_jitter: uniform jitter as a fraction of the backoff
            (``0.1`` = up to +-10%), decorrelating retry storms.
        batch_timeout_s: modeled retry-time budget per merged storage
            batch; once spent, remaining failures go to the fallback path.
        fallback_to_cpu: serve permanently failed pages from the
            CPU-buffer/feature-store path instead of raising
            :class:`~repro.errors.RetryExhaustedError`.
    """

    max_retries: int = 3
    backoff_base_s: float = 50e-6
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    batch_timeout_s: float = 0.5
    fallback_to_cpu: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        require_finite("backoff_base_s", self.backoff_base_s, minimum=0.0)
        require_finite(
            "backoff_multiplier", self.backoff_multiplier, minimum=1.0
        )
        jitter = require_finite(
            "backoff_jitter", self.backoff_jitter, minimum=0.0
        )
        if jitter >= 1.0:
            raise ConfigError("backoff_jitter must be in [0, 1)")
        require_finite(
            "batch_timeout_s",
            self.batch_timeout_s,
            minimum=0.0,
            exclusive_minimum=True,
        )

    def backoff_s(
        self, attempt: int, rng: np.random.Generator | None = None
    ) -> float:
        """Modeled backoff before retry ``attempt`` (1-based).

        With an ``rng`` the backoff carries the configured jitter; without
        one it is the deterministic midpoint.
        """
        if attempt <= 0:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        base = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        if rng is None or self.backoff_jitter == 0.0:
            return base
        jitter = rng.uniform(-self.backoff_jitter, self.backoff_jitter)
        return base * (1.0 + jitter)

    def max_backoff_total_s(self) -> float:
        """Upper bound on backoff time one request can accumulate."""
        total = 0.0
        for attempt in range(1, self.max_retries + 1):
            total += (
                self.backoff_base_s
                * self.backoff_multiplier ** (attempt - 1)
                * (1.0 + self.backoff_jitter)
            )
        return total
