"""The one read path: software cache -> storage -> PCIe ingress.

GIDS's argument is a single GPU-initiated read path (paper Section 3,
Eqs. 2-3).  Every workload in this repo — the training loader, the
inference server, the elastic fleet and full-graph sweeps — reads feature
or spill pages through it, so it exists exactly once, here, in two parts:

* :class:`StorageStack` **builds** the storage side (feature store and
  layout, SSD array, PCIe link, GPU model, fault injector and degradable
  array view, storage HA, hot-node CPU buffer) and :meth:`advances
  <StorageStack.advance>` it on the modeled clock.
* The **stages** are plain functions over pages and a
  :class:`~repro.sim.counters.TransferCounters`; each does its own
  accounting:

  ============ ========================================================
  ``probe``    quarantine skip -> ``cache.access`` -> hit bytes
  ``route``    ``StorageHA.route`` (or the unavailable-page mask) ->
               storage / replica / parity / fallback split
  ``verify``   corruption draw -> ``ReadVerifier.process`` -> cache
               invalidate (callers without a verifier skip the stage)
  ``charge``   the failure/retry/spike process, drawn and counted once
               per storage batch and apportioned over its entries;
               exhausted reads re-routed to the fallback tier
  ``transfer`` ``pcie.ingress_time`` + ``hbm_read_time``
  ============ ========================================================

A stage is present when its component exists: no verifier, no ``verify``;
no fault plan, ``route`` and ``charge`` are pass-throughs that draw no
random numbers.  What stays with each caller is *policy*: the loader's
grouping and time apportioning, the server's breaker loop / device
timeouts / hedging / brownout, the fleet's peer tier and SSD contention,
the full-graph sweep's sequential pricing.  ``tests/test_architecture.py``
keeps it that way.
"""

from __future__ import annotations

import numpy as np

from ..cache.cpu_buffer import ConstantCPUBuffer
from ..cache.gpu_cache import GPUSoftwareCache
from ..config import PAGE_BYTES, LoaderConfig, SystemConfig
from ..errors import ConfigError
from ..faults import FaultInjector, FaultPlan, FaultySSDArray, RetryPolicy
from ..faults.injector import BatchFaultOutcome
from ..graph.datasets import ScaledDataset
from ..graph.pagerank import hot_node_ranking
from ..integrity import ReadVerifier
from ..integrity.verifier import VerifyOutcome
from ..sim.counters import TransferCounters
from ..sim.gpu import GPUModel
from ..sim.pcie import PCIeLink
from ..sim.ssd import SSDArray
from ..storage.feature_store import FeatureStore
from ..storage_ha import StorageHA
from ..storage_ha.ha import HARouteOutcome


def apportion(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` units across ``weights`` proportionally (ints, exact).

    Largest-remainder rounding: the result sums to ``total`` exactly, which
    keeps per-iteration fault counters consistent with the group-level
    draw.  All-zero weights split as evenly as possible.
    """
    if total < 0:
        raise ConfigError("total must be non-negative")
    if not weights:
        return []
    w = np.asarray(weights, dtype=np.float64)
    if w.sum() == 0:
        w = np.ones(len(weights))
    raw = w / w.sum() * total
    out = np.floor(raw).astype(np.int64)
    remainder = total - int(out.sum())
    order = np.argsort(-(raw - out), kind="stable")
    for i in range(remainder):
        out[order[i]] += 1
    return out.tolist()


class StorageStack:
    """The storage side of the read path, built once per job.

    Every component is pay-for-what-you-use: with no (or a null) fault
    plan there is no injector and no degradable array view; with the
    redundancy defaults there is no :class:`~repro.storage_ha.StorageHA`.
    Absent components make the matching stage a pass-through, which is
    what keeps a bare run bit-identical to one built without the planes.

    Args:
        dataset: the graph whose feature table is served.
        system: hardware configuration (GPU, PCIe, SSD array).
        fault_plan: optional fault scenario; a PCIe degradation factor in
            the plan swaps in the degraded link.
        retry_policy: overrides the plan's embedded retry policy.
        replication / parity / rebuild_iops: storage-HA knobs; any
            non-default value builds the HA coordinator.
        tracer: optional tracer handed to the HA layer.
        features: optional materialized feature matrix.
        page_bytes: storage transfer granularity of the feature layout.
    """

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        *,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        replication: int = 1,
        parity: bool = False,
        rebuild_iops: float = 0.0,
        tracer=None,
        features: np.ndarray | None = None,
        page_bytes: int = PAGE_BYTES,
    ) -> None:
        self.system = system
        self.store = FeatureStore(
            dataset.num_nodes,
            dataset.feature_dim,
            data=features,
            page_bytes=page_bytes,
        )
        self.layout = self.store.layout
        self.ssd = SSDArray(system.ssd, system.num_ssds)
        self.pcie = PCIeLink(system.pcie)
        self.gpu = GPUModel(system.gpu)

        self.faults: FaultInjector | None = None
        self.fault_array: FaultySSDArray | None = None
        if fault_plan is not None and not fault_plan.is_null():
            self.faults = FaultInjector(fault_plan, retry_policy)
            self.fault_array = FaultySSDArray(self.ssd, self.faults)
            if fault_plan.pcie_degradation_factor > 1.0:
                self.pcie = PCIeLink(
                    system.pcie,
                    degradation_factor=fault_plan.pcie_degradation_factor,
                )

        # With redundancy on but no fault machinery attached every route
        # is an inert all-direct pass-through.
        self.storage_ha: StorageHA | None = None
        if replication > 1 or parity or rebuild_iops > 0:
            self.storage_ha = StorageHA(
                num_devices=system.num_ssds,
                base_latency_s=system.ssd.read_latency_s,
                replication=replication,
                parity=parity,
                rebuild_iops=rebuild_iops,
                total_pages=self.layout.total_pages,
                fault_array=self.fault_array,
                tracer=tracer,
            )

    def build_cpu_buffer(
        self,
        dataset: ScaledDataset,
        config: LoaderConfig,
        hot_nodes: np.ndarray | None,
        rng: np.random.Generator,
    ) -> ConstantCPUBuffer | None:
        """The constant CPU buffer pinning the hottest nodes (Section 3.3).

        ``hot_nodes`` is a caller-supplied ranking (users may "define
        which nodes should be pinned" with their own metric); otherwise
        the ranking comes from ``config.hot_node_metric``.
        """
        fraction = config.cpu_buffer_fraction
        if fraction <= 0:
            return None
        if hot_nodes is None:
            seed_weights = None
            if config.hot_node_metric == "reverse_pagerank":
                # Weight the teleport vector by training-seed membership so
                # the ranking reflects the actual sampling frontier.
                seed_weights = np.zeros(dataset.num_nodes)
                seed_weights[dataset.train_ids] = 1.0
                if seed_weights.sum() == 0:
                    seed_weights = None
            hot_nodes = hot_node_ranking(
                dataset.graph,
                config.hot_node_metric,
                seed_weights=seed_weights,
                rng=rng,
            )
        return ConstantCPUBuffer(
            num_nodes=dataset.num_nodes,
            feature_bytes=self.store.feature_bytes,
            capacity_bytes=fraction * dataset.feature_data_bytes,
            hot_nodes=hot_nodes,
        )

    def advance(self, now_s: float):
        """Move the stack to modeled ``now_s``; returns the array to charge.

        Under fault injection that is the degradable view (time-triggered
        device events fire here, and the HA health monitor takes one
        observation); otherwise the healthy array.
        """
        if self.fault_array is None:
            return self.ssd
        self.fault_array.advance_to(now_s)
        if self.storage_ha is not None:
            self.storage_ha.advance(now_s)
        return self.fault_array

    def rebuild_sweep(
        self, elapsed_s: float, now_s: float, counters: TransferCounters
    ) -> None:
        """Let the online rebuilder soak up ``elapsed_s`` of idle IOPS.

        The sweep overlaps the foreground work it follows (scrubber
        economics): it costs no modeled time, only traffic.
        """
        if self.storage_ha is None:
            return
        sweep = self.storage_ha.background_sweep(elapsed_s, now_s)
        if sweep is not None and sweep.pages_rebuilt:
            counters.rebuild_pages += sweep.pages_rebuilt

    def device_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(active, stale)`` per-device masks at the current time."""
        if self.fault_array is None:
            n = self.system.num_ssds
            return np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        active, _ = self.fault_array.device_states()
        return active, self.fault_array.stale_device_mask()


# ----------------------------------------------------------------------
# Stages


def probe(
    cache: GPUSoftwareCache,
    pages: np.ndarray,
    counters: TransferCounters,
    page_bytes: int,
    ledger=None,
) -> np.ndarray:
    """Look ``pages`` up in the GPU software cache; returns the misses.

    Pages the ledger holds in quarantine never touch cache or storage:
    their registered reuse units are released and they are served from the
    fallback tier.
    """
    if ledger is not None and ledger.num_quarantined:
        qmask = ledger.quarantined_mask(pages)
        if qmask.any():
            n_quarantine = int(qmask.sum())
            cache.forget_future(pages[qmask])
            pages = pages[~qmask]
            counters.fallback_requests += n_quarantine
            counters.fallback_bytes += n_quarantine * page_bytes
    hit_mask = cache.access(pages)
    n_hits = int(hit_mask.sum())
    counters.gpu_cache_hits += n_hits
    counters.gpu_cache_bytes += n_hits * page_bytes
    return pages[~hit_mask]


def route(
    stack: StorageStack,
    pages: np.ndarray,
    counters: TransferCounters,
    *,
    avoid: np.ndarray | None = None,
) -> HARouteOutcome:
    """Decide which copy serves each miss page and account the split.

    With redundancy, unavailable pages redirect to a surviving replica or
    reconstruct from parity (``avoid`` masks out further devices — an open
    breaker is a routing decision, not a device state); without it they
    are known-unavailable and skip storage.  Only pages with no live copy
    fall back to the CPU mirror (``lost_mask`` marks them; it may be
    ``None`` when ``n_lost`` is zero).
    """
    n = len(pages)
    if stack.fault_array is None or n == 0:
        out = HARouteOutcome(n_direct=n)
    elif stack.storage_ha is not None:
        out = stack.storage_ha.route(pages, avoid=avoid)
    else:
        lost = stack.fault_array.unavailable_page_mask(pages)
        n_lost = int(lost.sum())
        out = HARouteOutcome(
            n_direct=n - n_lost, n_lost=n_lost, lost_mask=lost
        )
    page_bytes = stack.layout.page_bytes
    # Parity reconstruction issues k member reads for each rebuilt page;
    # their bytes cross the link like any other storage read.
    counters.storage_requests += out.n_storage
    counters.storage_bytes += (
        out.n_storage + out.extra_service_reads
    ) * page_bytes
    counters.fallback_requests += out.n_lost
    counters.fallback_bytes += out.n_lost * page_bytes
    counters.replica_redirects += out.n_replica
    counters.parity_reconstructs += out.n_reconstruct
    counters.reconstruct_reads += out.reconstruct_reads
    return out


def verify(
    verifier: ReadVerifier,
    faults: FaultInjector | None,
    pages: np.ndarray,
    counters: TransferCounters,
    *,
    now_s: float,
    num_ssds: int,
    page_bytes: int,
    cache: GPUSoftwareCache | None = None,
) -> VerifyOutcome:
    """Run storage-served ``pages`` through the corruption draw and verifier.

    Redirected pages are verified exactly like primary reads.  Pages
    condemned this round are re-served by the fallback tier and, when a
    ``cache`` is given, invalidated so unverified bytes are never admitted.
    """
    origins = None
    if faults is not None and faults.plan.has_corruption and len(pages):
        kinds, origins = faults.corruption_kinds(pages, now_s, num_ssds)
    else:
        kinds = np.zeros(len(pages), dtype=np.uint8)
    outcome = verifier.process(
        pages, kinds, now_s=now_s, origin_times=origins
    )
    quarantined = outcome.quarantined
    if quarantined and cache is not None:
        cache.invalidate(outcome.quarantined_pages)
    counters.verified_pages += outcome.verified
    counters.unverified_pages += outcome.unverified
    counters.corrupt_detected += outcome.detected
    counters.corrupt_repaired += outcome.repaired
    counters.corrupt_quarantined += quarantined
    counters.integrity_rereads += outcome.rereads
    counters.fallback_requests += quarantined
    counters.fallback_bytes += quarantined * page_bytes
    return outcome


_NO_FAULTS = (BatchFaultOutcome(), 0)


def draw_faults(
    faults: FaultInjector | None,
    n_requests: int,
    entries: list[TransferCounters],
) -> tuple[BatchFaultOutcome, int]:
    """Draw the fault process once for a batch and count it on ``entries``.

    One ``resolve_batch`` and one ``spike_count`` draw per batch, in that
    order; returns ``(outcome, n_spiked)``.  Injected failures, retries
    and spikes are apportioned over the entries by their share of the
    batch's storage requests.
    """
    if faults is None:
        return _NO_FAULTS
    outcome = faults.resolve_batch(n_requests)
    n_spiked = faults.spike_count(n_requests)
    weights = [c.storage_requests for c in entries]
    for counters, injected, retries, spikes in zip(
        entries,
        apportion(outcome.injected_failures, weights),
        apportion(outcome.retries, weights),
        apportion(n_spiked, weights),
    ):
        counters.injected_faults += injected
        counters.storage_retries += retries
        counters.latency_spikes += spikes
    if outcome.timed_out and entries:
        entries[0].retry_timeouts += 1
    return outcome, n_spiked


def charge(
    stack: StorageStack,
    entries: list[TransferCounters],
) -> tuple[BatchFaultOutcome, int]:
    """Resolve one storage batch's faults and re-route what never arrived.

    Reads that exhausted the retry policy (or its time budget) are served
    by the fallback tier; their bytes never arrive from storage.  Retried
    commands (``outcome.retries``) occupy device service like fresh ones,
    which the caller prices.
    """
    n_requests = sum(c.storage_requests for c in entries)
    outcome, n_spiked = draw_faults(stack.faults, n_requests, entries)
    if outcome.unrecovered:
        page_bytes = stack.layout.page_bytes
        weights = [c.storage_requests for c in entries]
        for counters, unrecovered in zip(
            entries, apportion(outcome.unrecovered, weights)
        ):
            counters.storage_bytes = max(
                0, counters.storage_bytes - unrecovered * page_bytes
            )
            counters.fallback_requests += unrecovered
            counters.fallback_bytes += unrecovered * page_bytes
    return outcome, n_spiked


def transfer(
    stack: StorageStack,
    entries: list[TransferCounters],
    storage_s: float,
) -> tuple[float, float]:
    """``(ingress_s, hbm_s)``: the PCIe ingress phase, then the HBM reads.

    Storage bytes stream in over ``storage_s`` while the CPU-path bytes
    (constant buffer redirects and fallback reads) share the link.
    """
    ingress_s = stack.pcie.ingress_time(
        sum(c.storage_bytes for c in entries),
        storage_s,
        sum(c.cpu_buffer_bytes + c.fallback_bytes for c in entries),
    )
    hbm_s = stack.gpu.hbm_read_time(sum(c.gpu_cache_bytes for c in entries))
    return ingress_s, hbm_s
