"""SSD array model: analytic service times plus a discrete-event microbench.

Complementary views of the same devices:

* :class:`SSDArray` — closed-form service-time model used by the dataloaders.
  A feature-aggregation kernel issuing ``n`` page reads pays an initial phase
  (kernel launch + first-completion latency), a steady-state phase at peak
  IOPS, and a termination phase (Section 3.2 / Eq. 2-3 of the paper).  When a
  kernel cannot keep enough requests in flight the steady state never reaches
  peak IOPS, which is exactly the deficiency the dynamic storage access
  accumulator repairs.

* :func:`contended_ssd` — one device as seen by each of several GPUs
  sharing it (LSM-GNN's shared-SSD contention model), for the multi-GPU
  fleet and the observatory's fleet what-if rows.

* :class:`SSDMicrobench` — a discrete-event simulation of one kernel
  invocation with per-request service slots and stochastic latency.  It plays
  the role of the paper's "measured" curve in Fig. 8, against which the
  analytic model is validated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..config import GPUSpec, SSDSpec
from ..errors import ConfigError
from ..telemetry.tracer import ensure_tracer
from ..utils import as_rng


@dataclass(frozen=True)
class SSDArray:
    """One or more identical SSDs attached to a single GPU.

    Args:
        spec: per-device characteristics.
        num_ssds: devices striped evenly (BaM distributes requests across
            SSDs round-robin, so load is balanced).
        t_init_extra_s: software overhead before the first request is issued
            (kernel launch etc.; 25 us in Section 4.2).
        t_term_s: overhead after the last completion (5 us in Section 4.2).
    """

    spec: SSDSpec
    num_ssds: int = 1
    t_init_extra_s: float = 25e-6
    t_term_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.num_ssds <= 0:
            raise ConfigError(f"num_ssds must be positive, got {self.num_ssds}")
        if self.t_init_extra_s < 0 or self.t_term_s < 0:
            raise ConfigError("phase overheads must be non-negative")

    @property
    def t_init_s(self) -> float:
        """Initial-phase duration: software overhead + first completion."""
        return self.t_init_extra_s + self.spec.read_latency_s

    @property
    def peak_iops(self) -> float:
        """Collective peak IOPS of the array."""
        return self.spec.peak_iops * self.num_ssds

    @property
    def peak_bandwidth(self) -> float:
        """Collective peak read bandwidth in bytes/s."""
        return self.peak_iops * self.spec.page_bytes

    def effective(self) -> "SSDArray":
        """The array as it serves right now — itself; the degradable
        :class:`~repro.faults.array.FaultySSDArray` view answers too."""
        return self

    def batch_service_time(self, n_requests: int) -> float:
        """Time for one kernel invocation to read ``n_requests`` pages.

        Models the three phases of Section 3.2: ``T_i + T_s + T_t`` with the
        steady state running at peak collective IOPS.  Small batches are
        dominated by the fixed phases — the effect the accumulator removes by
        merging iterations into one large batch.
        """
        if n_requests < 0:
            raise ConfigError(f"n_requests must be non-negative, got {n_requests}")
        if n_requests == 0:
            return 0.0
        t_steady = n_requests / self.peak_iops
        return self.t_init_s + t_steady + self.t_term_s

    @property
    def seq_read_bandwidth(self) -> float:
        """Collective large-transfer sequential read bandwidth, bytes/s.

        Distinct from :attr:`peak_bandwidth` (the 4 KB random-read
        ceiling): sequential sweeps stream 128 KB+ requests through every
        channel, which real devices serve several times faster.  Falls
        back to the random ceiling for specs without a sequential path.
        """
        return self.spec.sequential_read_bandwidth * self.num_ssds

    @property
    def seq_write_bandwidth(self) -> float:
        """Collective large-transfer sequential write bandwidth, bytes/s."""
        return self.spec.sequential_write_bandwidth * self.num_ssds

    def sequential_read_time(self, n_bytes: float) -> float:
        """Time to stream ``n_bytes`` sequentially off the array.

        Same three-phase shape as :meth:`batch_service_time` — one initial
        phase (kernel launch + first completion), a steady state at the
        *sequential* bandwidth instead of the random-read IOPS ceiling,
        and a termination phase.  Used by full-graph partition sweeps and
        activation reloads; mini-batch loaders never take this path.
        """
        if n_bytes < 0:
            raise ConfigError(f"n_bytes must be non-negative, got {n_bytes}")
        if n_bytes == 0:
            return 0.0
        return self.t_init_s + n_bytes / self.seq_read_bandwidth + self.t_term_s

    def sequential_write_time(self, n_bytes: float) -> float:
        """Time to stream ``n_bytes`` sequentially onto the array.

        Write counterpart of :meth:`sequential_read_time` (activation
        spill during the forward sweep).  Writes are posted, so the
        initial phase is just the software overhead — no first-completion
        read latency.
        """
        if n_bytes < 0:
            raise ConfigError(f"n_bytes must be non-negative, got {n_bytes}")
        if n_bytes == 0:
            return 0.0
        return (
            self.t_init_extra_s
            + n_bytes / self.seq_write_bandwidth
            + self.t_term_s
        )

    def achieved_iops(self, n_overlapping: float) -> float:
        """Collective IOPS achieved with ``n_overlapping`` accesses per kernel.

        This is the paper's Eq. 2-3 solved for ``IOP_achieved``: a kernel
        that issues ``N`` overlapping requests completes in
        ``T_i + N / IOP_peak + T_t`` and therefore averages
        ``N / (T_i + T_s + T_t)`` IOPS over its lifetime.
        """
        if n_overlapping < 0:
            raise ConfigError("n_overlapping must be non-negative")
        if n_overlapping == 0:
            return 0.0
        return n_overlapping / self.batch_service_time(int(n_overlapping))

    def achieved_bandwidth(self, n_overlapping: float) -> float:
        """Bytes/s counterpart of :meth:`achieved_iops`."""
        return self.achieved_iops(n_overlapping) * self.spec.page_bytes

    def required_overlapping(self, target_fraction: float) -> int:
        """Overlapping accesses needed to reach ``target_fraction`` of peak.

        Inverts Eq. 2-3: the achieved/peak ratio equals
        ``T_s / (T_i + T_s + T_t)``, so hitting fraction ``f`` requires
        ``T_s = f / (1 - f) * (T_i + T_t)`` worth of steady-state work.
        The requirement scales linearly with ``num_ssds`` and with device
        latency, matching Section 3.2.
        """
        if not 0.0 < target_fraction < 1.0:
            raise ConfigError(
                f"target fraction must be in (0, 1), got {target_fraction}"
            )
        overhead = self.t_init_s + self.t_term_s
        t_steady = target_fraction / (1.0 - target_fraction) * overhead
        n = int(np.ceil(t_steady * self.peak_iops))
        # The closed-form ceil can land one short of the target when
        # t_steady * peak_iops is an exact integer up to float rounding
        # (e.g. 45 requests achieving 499999.99999... of a 500000 target);
        # walk forward until the Eq. 2-3 forward model actually agrees.
        target_iops = target_fraction * self.peak_iops
        while n > 0 and self.achieved_iops(n) < target_iops:
            n += 1
        return n


def contended_ssd(spec: SSDSpec, num_gpus: int) -> SSDSpec:
    """The SSD as seen by one of ``num_gpus`` concurrently reading GPUs.

    Fair sharing of the device's command throughput: each GPU observes
    ``peak / num_gpus`` IOPS at unchanged latency.  This is the worst case
    (all GPUs aggregating at once), which data-parallel training with
    synchronized steps approximates well.
    """
    if num_gpus <= 0:
        raise ConfigError("num_gpus must be positive")
    return SSDSpec(
        name=f"{spec.name} (shared by {num_gpus} GPUs)",
        read_latency_s=spec.read_latency_s,
        peak_iops=spec.peak_iops / num_gpus,
        page_bytes=spec.page_bytes,
    )


class SSDMicrobench:
    """Discrete-event simulation of one storage-reading kernel invocation.

    Each SSD exposes ``internal_parallelism`` service slots (Little's law on
    its peak IOPS and latency); requests beyond the free slots queue.
    Per-request latency is lognormal around the spec latency, reflecting the
    "high variance in latency" the paper observes in Section 4.2.

    An optional :class:`~repro.faults.injector.FaultInjector` adds
    per-request read failures (retried in-slot with the injector's backoff
    policy) and tail-latency spikes; without one, behavior and RNG
    consumption are unchanged.
    """

    def __init__(
        self,
        spec: SSDSpec,
        num_ssds: int = 1,
        *,
        gpu: GPUSpec | None = None,
        latency_cv: float = 0.25,
        seed: int | np.random.Generator | None = 0,
        fault_injector: "FaultInjector | None" = None,
        tracer=None,
    ) -> None:
        if num_ssds <= 0:
            raise ConfigError(f"num_ssds must be positive, got {num_ssds}")
        if latency_cv < 0:
            raise ConfigError("latency coefficient of variation must be >= 0")
        self.spec = spec
        self.num_ssds = num_ssds
        self.gpu = gpu if gpu is not None else GPUSpec()
        self.latency_cv = latency_cv
        self._rng = as_rng(seed)
        self.fault_injector = fault_injector
        self.tracer = ensure_tracer(tracer)

    def _draw_latencies(self, n: int) -> np.ndarray:
        """Lognormal service latencies with the configured mean and CV."""
        mean = self.spec.read_latency_s
        if self.latency_cv == 0:
            return np.full(n, mean)
        sigma2 = np.log1p(self.latency_cv**2)
        mu = np.log(mean) - sigma2 / 2.0
        return self._rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=n)

    def run(self, n_requests: int) -> tuple[float, float]:
        """Simulate a kernel that issues ``n_requests`` overlapping reads.

        Returns:
            ``(elapsed_seconds, achieved_iops)`` for the whole invocation,
            including launch and termination overheads.
        """
        if n_requests < 0:
            raise ConfigError("n_requests must be non-negative")
        if n_requests == 0:
            return 0.0, 0.0
        slots_per_ssd = max(1, int(round(self.spec.internal_parallelism)))
        latencies = self._draw_latencies(n_requests)
        start = self.gpu.kernel_launch_overhead_s

        inj = self.fault_injector
        failed = None
        if inj is not None:
            latencies = latencies * inj.latency_multipliers(n_requests)
            failed = inj.failure_mask(n_requests)

        # Per-SSD min-heaps of slot free times; requests round-robin over
        # SSDs exactly like BaM's queue-pair striping.
        slot_heaps: list[list[float]] = [
            [start] * slots_per_ssd for _ in range(self.num_ssds)
        ]
        for heap in slot_heaps:
            heapq.heapify(heap)
        last_completion = start
        for i in range(n_requests):
            heap = slot_heaps[i % self.num_ssds]
            free_at = heapq.heappop(heap)
            done = free_at + latencies[i]
            if failed is not None and failed[i]:
                # The command completed with error status; retry in the
                # same slot after backoff (the slot stays occupied, which
                # is what a held SQ entry costs the device).
                done = self._retry_in_slot(done, inj)
            heapq.heappush(heap, done)
            if done > last_completion:
                last_completion = done
        elapsed = last_completion + self.gpu.kernel_termination_overhead_s
        iops = n_requests / elapsed
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                "microbench_kernel",
                "ssd",
                start_s=tracer.clock_s,
                duration_s=elapsed,
                n_requests=n_requests,
                iops=iops,
            )
        return elapsed, iops

    def _retry_in_slot(self, done: float, inj) -> float:
        """Model bounded in-slot retries of one failed command."""
        policy = inj.policy
        for attempt in range(1, policy.max_retries + 1):
            done += policy.backoff_s(attempt, inj.rng) + self.spec.read_latency_s
            inj.stats.retries += 1
            if not inj.retry_failed():
                return done
            inj.stats.injected_failures += 1
        inj.stats.unrecovered += 1
        return done

    def sweep(self, n_values: list[int], repeats: int = 3) -> list[float]:
        """Mean achieved IOPS for each overlapping-access count in ``n_values``."""
        results = []
        for n in n_values:
            samples = [self.run(n)[1] for _ in range(repeats)]
            results.append(float(np.mean(samples)))
        return results
