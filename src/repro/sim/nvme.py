"""NVMe queue-pair model: the mechanism underneath BaM's storage path.

BaM exposes NVMe submission/completion queue pairs directly to GPU
threads: a thread builds a command, writes it into a submission queue
(SQ), rings the doorbell, and later polls the matching completion queue
(CQ).  Thousands of threads sharing many queue pairs is what creates the
request-level parallelism the Eq. 2-3 model summarizes.

This module simulates that mechanism explicitly — per-queue-pair command
slots, doorbell batching, device-side service with bounded internal
parallelism — so the aggregate behavior of :class:`repro.sim.ssd.SSDArray`
can be cross-validated against a mechanism-level simulation (see
``tests/test_sim_nvme.py``), the same relationship the paper establishes
between its analytic model and its measured microbenchmarks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..config import SSDSpec
from ..errors import ConfigError
from ..telemetry.tracer import ensure_tracer
from ..utils import as_rng


@dataclass(frozen=True)
class QueuePairSpec:
    """Host-side queue-pair characteristics.

    Args:
        num_queue_pairs: SQ/CQ pairs the driver allocates on the device
            (BaM uses up to 128).
        queue_depth: command slots per submission queue (NVMe allows up to
            64K; 1024 is the BaM default).
        submission_overhead_s: GPU-thread time to build and enqueue one
            command (tens of nanoseconds of global-memory traffic).
        doorbell_batch: commands accumulated per doorbell write; batching
            amortizes the MMIO cost.
        doorbell_overhead_s: cost of one doorbell MMIO write.
    """

    num_queue_pairs: int = 32
    queue_depth: int = 256
    submission_overhead_s: float = 100e-9
    doorbell_batch: int = 8
    doorbell_overhead_s: float = 500e-9

    def __post_init__(self) -> None:
        if self.num_queue_pairs <= 0:
            raise ConfigError("need at least one queue pair")
        if self.queue_depth <= 0:
            raise ConfigError("queue depth must be positive")
        if self.submission_overhead_s < 0 or self.doorbell_overhead_s < 0:
            raise ConfigError("overheads must be non-negative")
        if self.doorbell_batch <= 0:
            raise ConfigError("doorbell batch must be positive")


class NVMeQueueSim:
    """Event-driven simulation of one kernel's reads through queue pairs.

    Requests are assigned to queue pairs round-robin (BaM hashes thread id
    to queue pair).  A request occupies an SQ slot from submission until
    completion; the device services at most ``internal_parallelism``
    commands concurrently, each for a (stochastic) device latency.
    """

    def __init__(
        self,
        ssd: SSDSpec,
        queues: QueuePairSpec | None = None,
        *,
        latency_cv: float = 0.15,
        seed: int | np.random.Generator | None = 0,
        fault_injector: "FaultInjector | None" = None,
        tracer=None,
    ) -> None:
        if latency_cv < 0:
            raise ConfigError("latency_cv must be non-negative")
        self.ssd = ssd
        self.queues = queues if queues is not None else QueuePairSpec()
        self.latency_cv = latency_cv
        self._rng = as_rng(seed)
        self.fault_injector = fault_injector
        self.tracer = ensure_tracer(tracer)
        #: Commands that completed with CQ error status in the last run().
        self.last_cq_errors = 0

    def _latencies(self, n: int) -> np.ndarray:
        mean = self.ssd.read_latency_s
        if self.latency_cv == 0:
            return np.full(n, mean)
        sigma2 = np.log1p(self.latency_cv**2)
        mu = np.log(mean) - sigma2 / 2.0
        return self._rng.lognormal(mu, np.sqrt(sigma2), size=n)

    def run(self, n_requests: int) -> tuple[float, float]:
        """Simulate ``n_requests`` 4 KB reads; returns ``(seconds, IOPS)``.

        The submission side is modeled as a serial stream of command
        builds plus batched doorbells (massive thread parallelism makes
        per-thread submission concurrent, but SQ slot allocation serializes
        per queue, so aggregate submission throughput is bounded by the
        per-command overhead divided across queue pairs).
        """
        if n_requests < 0:
            raise ConfigError("n_requests must be non-negative")
        if n_requests == 0:
            return 0.0, 0.0
        q = self.queues
        latencies = self._latencies(n_requests)
        # Slot quantization correction: with `slots` concurrent commands at
        # mean latency L the device would sustain slots/L IOPS, which the
        # integer rounding of `internal_parallelism` can push past the
        # rated peak.  Scale service times so the sustained rate equals
        # the spec exactly.
        slots = max(1, int(round(self.ssd.internal_parallelism)))
        latencies *= slots / (self.ssd.peak_iops * self.ssd.read_latency_s)

        # Submission times: each queue pair is an independent serial
        # submitter; request i goes to queue i % Q at that queue's pace.
        per_command = q.submission_overhead_s + (
            q.doorbell_overhead_s / q.doorbell_batch
        )
        queue_of = np.arange(n_requests) % q.num_queue_pairs
        rank_in_queue = np.arange(n_requests) // q.num_queue_pairs
        submit_time = (rank_in_queue + 1) * per_command

        # Device service: bounded internal parallelism; a request also
        # cannot be submitted while its queue's depth is exhausted, which
        # we model by delaying submission until the slot `rank - depth`
        # of the same queue has completed.
        inj = self.fault_injector
        failed = None
        self.last_cq_errors = 0
        if inj is not None:
            latencies = latencies * inj.latency_multipliers(n_requests)
            failed = inj.failure_mask(n_requests)

        device_free: list[float] = [0.0] * slots
        heapq.heapify(device_free)
        completion = np.zeros(n_requests)
        for i in range(n_requests):
            ready = submit_time[i]
            blocker = i - q.queue_depth * q.num_queue_pairs
            if blocker >= 0:
                # Same-queue slot reuse: wait for an earlier completion.
                ready = max(ready, completion[blocker])
            slot_free = heapq.heappop(device_free)
            start = max(ready, slot_free)
            done = start + latencies[i]
            if failed is not None and failed[i]:
                # CQ entry carried an error status: the host re-submits the
                # command (bounded retries, backoff), holding the SQ slot.
                self.last_cq_errors += 1
                done = self._resubmit(done, inj)
            heapq.heappush(device_free, done)
            completion[i] = done
        elapsed = float(completion.max())
        iops = n_requests / elapsed
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                "nvme_kernel",
                "ssd",
                start_s=tracer.clock_s,
                duration_s=elapsed,
                n_requests=n_requests,
                iops=iops,
                cq_errors=self.last_cq_errors,
            )
        return elapsed, iops

    def _resubmit(self, done: float, inj) -> float:
        """Re-issue one failed command until success or retry exhaustion."""
        policy = inj.policy
        resubmit_cost = self.queues.submission_overhead_s + (
            self.queues.doorbell_overhead_s / self.queues.doorbell_batch
        )
        for attempt in range(1, policy.max_retries + 1):
            done += (
                policy.backoff_s(attempt, inj.rng)
                + resubmit_cost
                + self.ssd.read_latency_s
            )
            inj.stats.retries += 1
            if not inj.retry_failed():
                return done
            self.last_cq_errors += 1
            inj.stats.injected_failures += 1
        inj.stats.unrecovered += 1
        return done

    def sustained_iops(self, n_requests: int = 16384) -> float:
        """Steady-state IOPS estimate from one large batch."""
        return self.run(n_requests)[1]
