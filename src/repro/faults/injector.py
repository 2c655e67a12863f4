"""Seeded fault injection: turning a :class:`FaultPlan` into concrete draws.

The injector owns its *own* random stream, seeded from the plan — never
from the loader's sampling RNG — so injecting faults can never perturb
which nodes are sampled or which cache lines are evicted.  Two loaders
with the same fault plan suffer byte-identical fault sequences regardless
of their workload seeds, and a loader with a null plan consumes no random
numbers at all.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError, RetryExhaustedError
from ..state import StateRecord, Stateful, child, guard, rng_state, scalar, seq
from ..utils import isin_set, splitmix64_uniform
from .plan import (
    CORRUPT_BITFLIP,
    CORRUPT_PERSISTENT,
    CORRUPT_TORN,
    FaultPlan,
)
from .retry import Budget, RetryPolicy

#: Salt stride separating the hash streams of successive corruption storms.
_STORM_SALT_STRIDE = 0x51_7C_C1_B7_27_22_0A_95


@dataclass
class FaultStats(StateRecord):
    """Cumulative fault/retry accounting kept by one injector."""

    injected_failures: int = 0
    retries: int = 0
    unrecovered: int = 0
    latency_spikes: int = 0
    timeouts: int = 0
    corruptions_emitted: int = 0

    def merge(self, other: "FaultStats") -> None:
        self.injected_failures += other.injected_failures
        self.retries += other.retries
        self.unrecovered += other.unrecovered
        self.latency_spikes += other.latency_spikes
        self.timeouts += other.timeouts
        self.corruptions_emitted += other.corruptions_emitted

    def publish(self, registry, prefix: str = "faults") -> None:
        """Add the current counts into a telemetry metrics registry.

        One counter per field, named ``{prefix}.{field}``.  Adds (does not
        overwrite), so publish a cumulative stats object at most once per
        registry — typically right before export.
        """
        for name, value in self.state_dict().items():
            if value:
                registry.counter(f"{prefix}.{name}").inc(value)


FaultStats.STATE = tuple(scalar(f.name, int) for f in fields(FaultStats))


@dataclass(frozen=True)
class BatchFaultOutcome:
    """Resolved fault process for one batch of storage requests.

    ``retries`` counts re-issued commands (each occupies device service
    like a fresh request); ``backoff_s`` is the modeled wall time spent
    waiting between attempts; ``unrecovered`` requests exhausted the retry
    policy (or its time budget) and must be served by the fallback path.
    """

    attempted: int = 0
    injected_failures: int = 0
    retries: int = 0
    unrecovered: int = 0
    backoff_s: float = 0.0
    timed_out: bool = False


class FaultInjector(Stateful):
    """Stochastic fault source driven by a :class:`FaultPlan`.

    Args:
        plan: the fault scenario.
        policy: retry policy override; defaults to the plan's embedded
            policy.
    """

    def __init__(
        self, plan: FaultPlan, policy: RetryPolicy | None = None
    ) -> None:
        self.plan = plan
        self.policy = policy if policy is not None else plan.retry
        self._rng = np.random.default_rng(plan.seed)
        self.stats = FaultStats()
        self._events = sorted(
            plan.device_events, key=lambda e: (e.at_time_s, e.device)
        )
        # Storms keep their plan order: storm index salts the page-hash, so
        # reordering would repoison different pages.
        self._storms = tuple(plan.corruption_events)
        # Pages rewritten from a good copy after storm poisoning (repair
        # overlay on the stateless hash membership).  Bounded by the pages
        # actually touched, never by the device size.
        self._repaired_pages: set[int] = set()

    @property
    def rng(self) -> np.random.Generator:
        """The injector's private random stream (for in-slot retry draws)."""
        return self._rng

    # ------------------------------------------------------------------
    # Checkpointing

    # The device-event schedule is pure plan data, rebuilt at construction,
    # so only the stream position and the mutable pieces are captured.
    STATE = (
        guard("seed", lambda self: self.plan.seed),
        rng_state(),
        child("stats", cls=FaultStats),
        seq(
            "repaired_pages", int, attr="_repaired_pages", into=set,
            save=sorted, late=True,
        ),
    )

    def retry_failed(self) -> bool:
        """Draw whether one retried command fails again."""
        return self._rng.random() < self.plan.effective_retry_failure_rate

    # ------------------------------------------------------------------
    # Per-request draws

    def failure_mask(self, n: int, *, retry: bool = False) -> np.ndarray:
        """Boolean mask of commands that complete with CQ error status."""
        if n < 0:
            raise ConfigError("request count must be non-negative")
        rate = (
            self.plan.effective_retry_failure_rate
            if retry
            else self.plan.read_failure_rate
        )
        if n == 0 or rate == 0.0:
            return np.zeros(n, dtype=bool)
        mask = self._rng.random(n) < rate
        self.stats.injected_failures += int(mask.sum())
        return mask

    def latency_multipliers(self, n: int) -> np.ndarray:
        """Per-request service-latency multipliers (tail spikes)."""
        if n < 0:
            raise ConfigError("request count must be non-negative")
        mult = np.ones(n)
        rate = self.plan.tail_latency_rate
        if n == 0 or rate == 0.0:
            return mult
        spiked = self._rng.random(n) < rate
        mult[spiked] = self.plan.tail_latency_multiplier
        self.stats.latency_spikes += int(spiked.sum())
        return mult

    def spike_count(self, n: int) -> int:
        """Number of tail-latency spikes among ``n`` requests (aggregate)."""
        if n < 0:
            raise ConfigError("request count must be non-negative")
        if n == 0 or self.plan.tail_latency_rate == 0.0:
            return 0
        count = int(self._rng.binomial(n, self.plan.tail_latency_rate))
        self.stats.latency_spikes += count
        return count

    # ------------------------------------------------------------------
    # Whole-device state

    def device_states(
        self, now_s: float, num_devices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-device ``(active, slowdown_factor)`` at simulated ``now_s``.

        Events targeting devices outside the array are ignored here;
        :class:`~repro.core.readpath.StorageStack` refuses such a plan
        before any injector is built.
        """
        if num_devices <= 0:
            raise ConfigError("num_devices must be positive")
        active = np.ones(num_devices, dtype=bool)
        factors = np.ones(num_devices)
        for event in self._events:
            if event.at_time_s > now_s or event.device >= num_devices:
                continue
            if event.kind == "dropout":
                active[event.device] = False
            elif event.kind == "recovery":
                active[event.device] = True
                factors[event.device] = 1.0
            else:  # slowdown / fail_slow: device still answers, just slower
                factors[event.device] = event.factor
        return active, factors

    def dropout_counts(self, now_s: float, num_devices: int) -> np.ndarray:
        """Per-device count of dropout events that have fired by ``now_s``.

        This is the device's *incident generation*: a device that dropped
        out and later recovered has a higher dropout count than the clean
        generation recorded by :class:`~repro.faults.array.FaultySSDArray`
        until a rebuild marks it clean again.
        """
        if num_devices <= 0:
            raise ConfigError("num_devices must be positive")
        counts = np.zeros(num_devices, dtype=np.int64)
        for event in self._events:
            if event.at_time_s > now_s or event.device >= num_devices:
                continue
            if event.kind == "dropout":
                counts[event.device] += 1
        return counts

    def lost_page_mask(
        self, pages: np.ndarray, now_s: float, num_devices: int
    ) -> np.ndarray:
        """Which of ``pages`` live on a currently dropped-out device.

        Pages stripe round-robin across the array (BaM's queue-pair
        striping), so page ``p``'s home device is ``p % num_devices``.
        """
        pages = np.asarray(pages, dtype=np.int64)
        active, _ = self.device_states(now_s, num_devices)
        if active.all():
            return np.zeros(len(pages), dtype=bool)
        return ~active[pages % num_devices]

    # ------------------------------------------------------------------
    # Silent corruption

    def poisoned_info(
        self, pages: np.ndarray, now_s: float, num_devices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(poisoned_mask, origin_times)`` for storm-poisoned pages.

        Membership is a pure hash of ``(plan seed, storm index, page)`` —
        no random stream is consumed, so corruption storms cannot perturb
        the failure/spike draws, and a killed-and-resumed run agrees on
        exactly which pages are poisoned.  ``origin_times`` holds the
        poisoning storm's ``at_time_s`` for poisoned pages (earliest storm
        wins) and ``now_s`` elsewhere.  Pages rewritten via
        :meth:`mark_repaired` are healed.
        """
        if num_devices <= 0:
            raise ConfigError("num_devices must be positive")
        pages = np.asarray(pages, dtype=np.int64)
        mask = np.zeros(len(pages), dtype=bool)
        origins = np.full(len(pages), float(now_s))
        if not self._storms or len(pages) == 0:
            return mask, origins
        for index, storm in enumerate(self._storms):
            if storm.at_time_s > now_s or storm.device >= num_devices:
                continue
            on_device = (pages % num_devices) == storm.device
            if not on_device.any():
                continue
            salt = self.plan.seed + (index + 1) * _STORM_SALT_STRIDE
            hit = on_device & (
                splitmix64_uniform(pages, salt) < storm.page_fraction
            )
            fresh = hit & ~mask
            origins[fresh] = storm.at_time_s
            mask |= hit
        if self._repaired_pages and mask.any():
            mask &= ~isin_set(pages, self._repaired_pages)
        return mask, origins

    def corruption_kinds(
        self, pages: np.ndarray, now_s: float, num_devices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-read corruption outcome for ``pages`` served from storage.

        Returns ``(kinds, origin_times)`` where ``kinds`` holds the
        ``CORRUPT_*`` codes (0 for clean reads).  Transient draws (bit
        flips, torn reads) come from the injector's private stream and are
        only made when the corresponding rate is non-zero, so plans without
        corruption consume exactly the random numbers they did before this
        feature existed.  Persistent (storm) poisoning overrides transient
        kinds — the media copy being bad dominates the in-flight error.
        Every non-clean read increments ``stats.corruptions_emitted``.
        """
        pages = np.asarray(pages, dtype=np.int64)
        n = len(pages)
        kinds = np.zeros(n, dtype=np.uint8)
        origins = np.full(n, float(now_s))
        if n == 0:
            return kinds, origins
        if self.plan.bitflip_rate > 0.0:
            kinds[self._rng.random(n) < self.plan.bitflip_rate] = (
                CORRUPT_BITFLIP
            )
        if self.plan.torn_page_rate > 0.0:
            kinds[self._rng.random(n) < self.plan.torn_page_rate] = (
                CORRUPT_TORN
            )
        if self._storms:
            poisoned, storm_origins = self.poisoned_info(
                pages, now_s, num_devices
            )
            kinds[poisoned] = CORRUPT_PERSISTENT
            origins[poisoned] = storm_origins[poisoned]
        self.stats.corruptions_emitted += int((kinds != 0).sum())
        return kinds, origins

    def count_emitted(self, n: int) -> None:
        """Account ``n`` corrupt reads observed outside the loader path
        (the background scrubber's sweep reads)."""
        if n < 0:
            raise ConfigError("count must be non-negative")
        self.stats.corruptions_emitted += n

    def mark_repaired(self, page: int) -> None:
        """Record that ``page`` was rewritten from a good copy: storm
        poisoning no longer applies to it."""
        self._repaired_pages.add(int(page))

    # ------------------------------------------------------------------
    # Aggregate retry process

    def resolve_batch(
        self,
        n_requests: int,
        *,
        time_budget_s: float | None = None,
    ) -> BatchFaultOutcome:
        """Run the failure/retry process for ``n_requests`` storage reads.

        Draws the initial failure count, then iterates bounded retry
        rounds: each round re-issues all still-failed commands after the
        policy's (jittered) backoff, stopping early when the modeled time
        budget runs out.  Raises :class:`RetryExhaustedError` when requests
        remain failed and the policy forbids falling back.
        """
        if n_requests < 0:
            raise ConfigError("request count must be non-negative")
        policy = self.policy
        rate = self.plan.read_failure_rate
        if n_requests == 0 or rate == 0.0:
            return BatchFaultOutcome(attempted=n_requests)
        allowance = policy.batch_timeout_s
        if time_budget_s is not None:
            allowance = min(allowance, time_budget_s)
        budget = Budget(allowance)

        failed = int(self._rng.binomial(n_requests, rate))
        injected = failed
        retries = 0
        timed_out = False
        retry_rate = self.plan.effective_retry_failure_rate
        attempt = 1
        while failed > 0 and attempt <= policy.max_retries:
            wait = policy.backoff_s(attempt, self._rng)
            if not budget.try_spend(wait):
                timed_out = True
                break
            retries += failed
            still_failed = (
                int(self._rng.binomial(failed, retry_rate))
                if retry_rate > 0.0
                else 0
            )
            injected += still_failed
            failed = still_failed
            attempt += 1

        if failed > 0 and not policy.fallback_to_cpu:
            raise RetryExhaustedError(
                f"{failed} storage reads still failing after "
                f"{attempt - 1} retry rounds "
                f"({'timeout' if timed_out else 'retry limit'})"
            )
        outcome = BatchFaultOutcome(
            attempted=n_requests,
            injected_failures=injected,
            retries=retries,
            unrecovered=failed,
            backoff_s=budget.spent_s,
            timed_out=timed_out,
        )
        self.stats.injected_failures += injected
        self.stats.retries += retries
        self.stats.unrecovered += failed
        if timed_out:
            self.stats.timeouts += 1
        return outcome
