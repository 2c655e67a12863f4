"""Ginex-style baseline: super-batch Belady caching on the CPU.

Ginex (Park et al., VLDB'22) samples a *super-batch* of mini-batches up
front, which makes the future access sequence known, and manages an
in-CPU-memory feature cache with Belady's provably optimal eviction.  It
pipelines sampling, cache planning and gathering so that sampling time
hides behind feature I/O.  Feature misses are fetched with CPU-initiated
asynchronous reads — better than mmap's synchronous faults, but still
bounded by the CPU's I/O submission capacity and the in-flight window over
device latency (Section 5 of the GIDS paper: Ginex "cannot fully hide
storage latency").

As in the paper, this loader supports only homogeneous graphs and
neighborhood sampling.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from ..cache.belady import BeladyCache
from ..config import SystemConfig
from ..core import readpath
from ..errors import ConfigError
from ..faults import FaultPlan, RetryPolicy
from ..graph.datasets import ScaledDataset
from ..integrity import VERIFY_BANDWIDTH_BYTES_PER_S, VERIFY_MODES
from ..pipeline.loader import MiniBatchLoader
from ..pipeline.metrics import IterationMetrics, StageTimes
from ..sampling.minibatch import MiniBatch
from ..sim.counters import TransferCounters
from ..sim.cpu import CPUModel


class GinexLoader(MiniBatchLoader):
    """Super-batch Belady caching with pipelined CPU data preparation.

    Each super-batch is one group of :meth:`next_training_group`; :meth:`run`
    warms the Belady cache for 100 iterations by default.

    Args:
        dataset: the (scaled) graph dataset; must be homogeneous.
        system: hardware configuration.
        superbatch_size: mini-batches sampled ahead per super-batch.
        planning_rate: accesses/s the CPU can plan Belady decisions for
            (changeset inspection + metadata updates).
        sample_threads: CPU threads of the (pipelined) sampling stage.
        io_threads: CPU threads of the feature I/O stage.  Ginex's pipeline
            dedicates a small pool to feature I/O (the other stages hold the
            remaining cores), which is what keeps its achieved storage IOPS
            far below the GPU-initiated path.
        io_queue_depth: outstanding async reads per I/O thread.
    """

    name = "Ginex"
    WARMUP = 100

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        *,
        batch_size: int = 1024,
        fanouts: tuple[int, ...] = (10, 5, 5),
        superbatch_size: int = 8,
        planning_rate: float = 2e6,
        sample_threads: int = 16,
        io_threads: int = 4,
        io_queue_depth: int = 2,
        features: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        verify_reads: str = "off",
        verify_sample_rate: float = 0.1,
    ) -> None:
        if dataset.hetero is not None:
            raise ConfigError(
                "Ginex supports only homogeneous graphs (Section 4.1)"
            )
        if superbatch_size <= 0:
            raise ConfigError("superbatch_size must be positive")
        if planning_rate <= 0:
            raise ConfigError("planning_rate must be positive")
        super().__init__(dataset, system, batch_size=batch_size, seed=seed)
        self.superbatch_size = superbatch_size
        self.planning_rate = planning_rate

        # The store, the device models and the fault plane come from the
        # one storage stack and its rules: no injector under no (or a null)
        # plan, the degraded link under a PCIe-degradation plan.
        # CPU-issued async reads suffer the same failure/spike rates and
        # device events as GPU-initiated ones; retries and backoff are
        # charged to the aggregation stage.
        stack = readpath.StorageStack(
            dataset, system, fault_plan=fault_plan,
            retry_policy=retry_policy, features=features,
        )
        self.store, self.layout = stack.store, stack.layout
        self.gpu, self.pcie, self.faults = stack.gpu, stack.pcie, stack.faults
        self.fault_plan = fault_plan
        self.cpu = CPUModel(system.cpu, threads=sample_threads)
        self._io_cpu = CPUModel(system.cpu, threads=io_threads)
        self.sampler = self._build_sampler("neighbor", fanouts)

        free_bytes = max(
            0.0, system.usable_cpu_memory - dataset.structure_data_bytes
        )
        self.cache = BeladyCache(
            capacity_pages=int(free_bytes // self.layout.page_bytes)
        )
        self._io_queue_depth = io_queue_depth
        self._io_rate = self._io_cpu.async_io_rate(
            system.ssd,
            system.num_ssds,
            queue_depth_per_thread=io_queue_depth,
        )

        # Ginex's miss serving is aggregate (counts, not page ids), so its
        # integrity support is aggregate too: transient corruption (bit
        # flips, torn reads) is drawn binomially over the delivered reads
        # and — under "sample"/"full" verification — detected and repaired
        # by modeled re-read.  Storm-poisoned media needs per-page identity
        # and is modeled only by the GIDS-family loaders.
        if verify_reads not in VERIFY_MODES:
            raise ConfigError(
                f"unknown verify mode {verify_reads!r}; "
                f"expected one of {VERIFY_MODES}"
            )
        self.verify_reads = verify_reads
        self.verify_sample_rate = float(verify_sample_rate)

    def next_training_group(
        self, remaining: int
    ) -> list[tuple[MiniBatch, IterationMetrics]]:
        """Sample, plan and serve one super-batch of at most ``remaining``
        mini-batches."""
        batches = [
            self._sample()
            for _ in range(min(self.superbatch_size, remaining))
        ]
        page_lists = [
            self.layout.pages_for_nodes(b.input_nodes) for b in batches
        ]
        accesses = np.concatenate(page_lists)
        hits, misses = self.cache.process_superbatch(accesses)

        # Apportion super-batch hits/misses to iterations by page share.
        total_pages = max(1, len(accesses))
        planning_time_total = len(accesses) / self.planning_rate

        pairs = []
        for batch, pages in zip(batches, page_lists):
            share = len(pages) / total_pages
            it_misses = int(round(misses * share))
            it_hits = len(pages) - it_misses

            n_nodes = batch.num_input_nodes
            sampling_time = self.cpu.sampling_time(batch.num_sampled)
            io_time, counters = self._serve_misses(it_misses)
            counters.page_cache_hits = it_hits
            gather_time = (
                self.cpu.gather_time_resident(n_nodes)
                + planning_time_total * share
            )
            # Ginex pipelines sampling behind the gather/I/O stage; only the
            # part of sampling that the aggregation cannot hide is exposed.
            exposed_sampling = max(
                0.0, sampling_time - (io_time + gather_time)
            )
            feature_bytes = n_nodes * self.store.feature_bytes
            times = StageTimes(
                sampling=exposed_sampling,
                aggregation=io_time + gather_time,
                transfer=self.pcie.transfer_time(feature_bytes),
                training=self.gpu.training_time(n_nodes),
            )
            pairs.append((batch, self._metrics(batch, times, counters)))
        return self._advance(pairs)

    def _serve_misses(self, it_misses: int) -> tuple[float, TransferCounters]:
        """Model feature I/O for one iteration's cache misses.

        Healthy path: ``misses / io_rate``.  Under a fault plan the misses
        on dropped-out devices fall back to a CPU-resident gather, failed
        reads are retried with backoff, and the async I/O rate is
        re-derived from the surviving device count.
        """
        page_bytes = self.layout.page_bytes
        if self.faults is None:
            return it_misses / self._io_rate, TransferCounters(
                storage_requests=it_misses,
                storage_bytes=it_misses * page_bytes,
            )

        active, _ = self.faults.device_states(
            self._sim_now_s, self.system.num_ssds
        )
        n_active = int(active.sum())
        n_lost = (
            it_misses
            if n_active == 0
            else int(round(it_misses * (1.0 - n_active / self.system.num_ssds)))
        )
        n_storage = it_misses - n_lost
        counters = TransferCounters(storage_requests=n_storage)
        outcome, n_spiked = readpath.draw_faults(
            self.faults, n_storage, [counters]
        )
        n_fallback = n_lost + outcome.unrecovered
        delivered = n_storage - outcome.unrecovered

        io_time = outcome.backoff_s
        if n_storage:
            io_rate = self._io_cpu.async_io_rate(
                self.system.ssd,
                n_active,
                queue_depth_per_thread=self._io_queue_depth,
            )
            io_time += (n_storage + outcome.retries) / io_rate
            # A spiked read occupies one in-flight I/O slot for the extra
            # latencies; the window absorbs it across its whole depth.
            in_flight = max(1, self._io_cpu.threads * self._io_queue_depth)
            io_time += (
                n_spiked
                * (self.faults.plan.tail_latency_multiplier - 1.0)
                * self.system.ssd.read_latency_s
                / in_flight
            )
        # Lost/unrecovered pages are gathered from the CPU-resident
        # feature mirror instead.
        io_time += self.cpu.gather_time_resident(n_fallback)

        # Aggregate integrity pass: transient corruption among the
        # delivered reads, verified per the configured mode.  Every
        # detection heals on one re-read (transient by construction here),
        # so Ginex never quarantines.
        plan = self.faults.plan
        n_corrupt = detected = verified = 0
        transient_rate = min(1.0, plan.bitflip_rate + plan.torn_page_rate)
        if transient_rate > 0.0 and delivered > 0:
            n_corrupt = int(
                self.faults.rng.binomial(delivered, transient_rate)
            )
            self.faults.count_emitted(n_corrupt)
        if self.verify_reads == "full":
            verified = delivered
            detected = n_corrupt
        elif self.verify_reads == "sample" and delivered > 0:
            verified = int(
                self.faults.rng.binomial(delivered, self.verify_sample_rate)
            )
            if n_corrupt:
                detected = int(
                    self.faults.rng.binomial(
                        n_corrupt, self.verify_sample_rate
                    )
                )
        if verified:
            io_time += verified * page_bytes / VERIFY_BANDWIDTH_BYTES_PER_S
        if detected:
            io_time += detected / self._io_rate
        integrity_on = self.verify_reads != "off" or plan.has_corruption
        unverified = delivered - verified if integrity_on else 0

        return io_time, replace(
            counters,
            storage_bytes=delivered * page_bytes,
            fallback_requests=n_fallback,
            fallback_bytes=n_fallback * page_bytes,
            verified_pages=verified,
            unverified_pages=unverified,
            corrupt_detected=detected,
            corrupt_repaired=detected,
            integrity_rereads=detected,
        )

    @contextmanager
    def _measurement(self):
        self.cache.stats.reset()
        yield
