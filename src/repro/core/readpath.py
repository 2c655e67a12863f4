"""The one read path: software cache -> storage -> PCIe ingress.

GIDS's argument is a single GPU-initiated read path (paper Section 3,
Eqs. 2-3).  Every workload in this repo — the training loader, the
inference server, the elastic fleet and full-graph sweeps — reads feature
or spill pages through it, so it exists exactly once, here, in two parts:

* :class:`StorageStack` **builds** the storage side — feature store and
  layout, SSD array, PCIe link, GPU model, hot-node CPU buffer and the
  optional planes: fault injection (injector + degradable array view),
  storage HA, integrity (ledger, checksummer, verifier, scrubber) — and
  **decides**, in its constructor, what each stage runs.
* The **stages** are plain functions over pages and a
  :class:`~repro.sim.counters.TransferCounters`; each does its own
  accounting:

  ============ ========================================================
  ``bypass``   ``cpu_buffer.contains`` -> the hot nodes the constant CPU
               buffer serves, and the pages of the rest
  ``probe``    ``cache.access`` -> hit bytes
  ``route``    ``stack.router`` (``StorageHA.route``, the
               unavailable-page mask, or all-direct; each honours
               ``avoid``) -> storage / replica / parity / fallback split
  ``verify``   corruption draw -> ``ReadVerifier.process`` -> cache
               invalidate
  ``charge``   the failure/retry/spike process, drawn and counted once
               per storage batch and apportioned over its entries;
               exhausted reads re-routed to the fallback tier
  ``transfer`` ``pcie.ingress_time`` + ``hbm_read_time``
  ============ ========================================================

Whether a plane is on is asked once, at construction, and answered by what
the stack hands out: ``array``, ``router``, ``charge``, ``device_masks``,
``entry_stages`` (probe -> route; with an integrity plane, the quarantine
skip before and ``verify`` after) and the tuples behind ``advance``,
``background`` and ``plane_totals``.  An absent plane is absent from the
tuple — no null object, no call — so callers run what they were handed and
never test a handle (the handles stay public, ``None`` when absent, for
reports and tests), and a bare stack stays bit-identical to one built
without the planes.  What stays with each caller is *policy*: the loader's
grouping and time apportioning, the server's breaker loop / device timeouts
/ hedging / brownout, the fleet's peer tier and SSD contention, the
full-graph sweep's sequential pricing.  ``tests/test_architecture.py``
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
from ..integrity import (
    CorruptionLedger,
    PageChecksummer,
    ReadVerifier,
    Scrubber,
)
from ..integrity.verifier import VerifyOutcome
from ..sim.counters import TransferCounters
from ..sim.gpu import GPUModel
from ..sim.pcie import PCIeLink
from ..sim.ssd import SSDArray
from ..storage.feature_store import FeatureStore
from ..storage_ha import StorageHA
from ..storage_ha.ha import HARouteOutcome
from ..telemetry.tracer import Tracer, ensure_tracer
from ..telemetry.tracks import INTEGRITY_TRACK


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


#: Fixed software cost of one aggregation launch (GIDS) or one served
#: request (serving): DGL dataloader plumbing and kernel setup, the
#: stop-and-go boundary the accumulator amortizes away.
FRAMEWORK_OVERHEAD_S = 150e-6

#: ``(outcome, spike_s)`` of a batch on a stack without fault injection.
_UNCHARGED = (BatchFaultOutcome(), 0.0)


def _uncharged(entries: list[TransferCounters]):
    return _UNCHARGED


def _split_lost(lost: np.ndarray) -> HARouteOutcome:
    """Route outcome of an unprotected array: ``lost`` pages have no copy
    to go to, every other page is read direct."""
    n_lost = int(lost.sum())
    return HARouteOutcome(
        n_direct=len(lost) - n_lost, n_lost=n_lost, lost_mask=lost
    )


class StorageStack:
    """The storage side of the read path, built and decided once per job.

    Every plane is pay-for-what-you-use, under rules that live here and
    nowhere else: no (or a null) fault plan, no injector and no degradable
    array view; the redundancy defaults, no
    :class:`~repro.storage_ha.StorageHA`; and an integrity plane only when
    something can corrupt reads or verification / scrubbing was asked for.

    Args:
        dataset: the graph whose feature table is served.
        system: hardware configuration (GPU, PCIe, SSD array).
        fault_plan: optional fault scenario; a PCIe degradation factor in
            the plan swaps in the degraded link.  A device or corruption
            event past the array is a :class:`~repro.errors.ConfigError`.
        retry_policy: overrides the plan's embedded retry policy.
        replication / parity / rebuild_iops: storage-HA knobs; any
            non-default value builds the HA coordinator.  A replication
            factor below 1 or a negative (or NaN) rebuild budget is a
            :class:`~repro.errors.ConfigError`.
        verify_reads / verify_sample_rate / scrub_iops: integrity knobs
            (see :class:`~repro.core.gids.GIDSDataLoader`); ``"sample"``
            draws from its own stream, seeded by the plan.
        tracer: optional tracer for the HA layer and the scrub sweep.
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
        verify_reads: str = "off",
        verify_sample_rate: float = 0.1,
        scrub_iops: float = 0.0,
        tracer: Tracer | None = None,
        features: np.ndarray | None = None,
        page_bytes: int = PAGE_BYTES,
    ) -> None:
        if replication < 1:
            raise ConfigError("replication factor must be >= 1")
        if not rebuild_iops >= 0:
            raise ConfigError("rebuild IOPS budget must be non-negative")
        if fault_plan is not None:
            problems = fault_plan.target_errors(num_ssds=system.num_ssds)
            if problems:
                raise ConfigError(f"fault plan: {'; '.join(problems)}")
        self.system = system
        self.tracer = ensure_tracer(tracer)
        self.store = FeatureStore(
            dataset.num_nodes,
            dataset.feature_dim,
            data=features,
            page_bytes=page_bytes,
        )
        self.layout = self.store.layout
        self.page_bytes = self.layout.page_bytes
        self.ssd = SSDArray(system.ssd, system.num_ssds)
        self.pcie = PCIeLink(system.pcie)
        self.gpu = GPUModel(system.gpu)

        # What a bare stack hands out; each plane built below replaces or
        # extends its part.
        #: The array a storage batch is charged against.
        self.array = self.ssd
        #: ``router(pages, avoid=None) -> HARouteOutcome``.
        self.router = self._all_direct
        #: ``charge(entries) -> (BatchFaultOutcome, spike_s)``.
        self.charge = _uncharged
        #: ``device_masks() -> (active, stale)`` at the current time.
        self.device_masks = self._healthy_masks
        #: ``stage(stack, cache, pages, counters, now_s) -> pages``, run in
        #: order over one entry's pages: each hands on what the next sees.
        self.entry_stages: tuple = (probe, _route_entry)
        # Behind advance(), background(), plane_totals(), publish_since().
        self._ticks = self._sweeps = self._totals = self._levels = ()

        self.faults = self.fault_array = None
        degradable = fault_plan is not None and not fault_plan.is_null()
        if degradable:
            self.faults = FaultInjector(fault_plan, retry_policy)
            self.fault_array = FaultySSDArray(self.ssd, self.faults)
            if fault_plan.pcie_degradation_factor > 1.0:
                self.pcie = PCIeLink(
                    system.pcie,
                    degradation_factor=fault_plan.pcie_degradation_factor,
                )
            self.array = self.fault_array
            self.router = self._route_unprotected
            self.charge = self._charge
            self.device_masks = self._degraded_masks
            self._ticks = (self.fault_array.advance_to,)
            self._totals = (("faults", self.faults.stats.state_dict),)

        self.storage_ha = None
        if replication > 1 or parity or rebuild_iops > 0:
            self.storage_ha = StorageHA(
                num_devices=system.num_ssds,
                base_latency_s=system.ssd.read_latency_s,
                replication=replication,
                parity=parity,
                rebuild_iops=rebuild_iops,
                total_pages=self.layout.total_pages,
                fault_array=self.fault_array,
                tracer=self.tracer,
            )
            self._sweeps = (self._rebuild_sweep,)
            # With redundancy on but no fault machinery attached every
            # route stays an inert all-direct pass-through.
            if degradable:
                self.router = self.storage_ha.route
                self._ticks += (self.storage_ha.advance,)

        self.ledger = self.checksummer = self.verifier = self.scrubber = None
        #: One entry per verified batch: the page ids ``verify`` let
        #: through corrupt, for whoever materializes the bytes.
        self.undetected: list[np.ndarray] = []
        corruptible = fault_plan is not None and fault_plan.has_corruption
        if verify_reads != "off" or scrub_iops > 0 or corruptible:
            self.ledger = CorruptionLedger(num_devices=system.num_ssds)
            self.checksummer = PageChecksummer(self.store)
            self.verifier = ReadVerifier(
                self.ledger,
                mode=verify_reads,
                sample_rate=verify_sample_rate,
                seed=fault_plan.seed if fault_plan is not None else 0,
                checksummer=self.checksummer,
            )
            self.entry_stages = (
                _skip_quarantined, probe, _route_entry, _verify_entry
            )
            self._totals += (("integrity", self.ledger.totals),)
            self._levels = (
                ("integrity.quarantined", lambda: self.ledger.num_quarantined),
            )
            if scrub_iops > 0:
                self.scrubber = Scrubber(
                    total_pages=self.layout.total_pages,
                    iops_budget=scrub_iops,
                    ledger=self.ledger,
                    injector=self.faults,
                    num_devices=system.num_ssds,
                    checksummer=self.checksummer,
                )
                self._sweeps = (self._scrub_sweep,) + self._sweeps

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
        """Move the stack to modeled ``now_s``; returns :attr:`array`.

        Under fault injection time-triggered device events fire here, and
        the HA health monitor takes one observation.
        """
        for tick in self._ticks:
            tick(now_s)
        return self.array

    def background(
        self, elapsed_s: float, now_s: float, counters: TransferCounters
    ) -> None:
        """Let the scrubber, then the rebuilder, soak up ``elapsed_s`` of
        idle device IOPS.

        The sweeps overlap the foreground work they follow: they cost no
        modeled time, only traffic, accounted on ``counters``.
        """
        for sweep in self._sweeps:
            sweep(elapsed_s, now_s, counters)

    def _scrub_sweep(self, elapsed_s, now_s, counters) -> None:
        scrub = self.scrubber.sweep(elapsed_s, now_s)
        if scrub.pages_scanned:
            counters.scrubbed_pages += scrub.pages_scanned
            counters.corrupt_detected += scrub.detected
            counters.corrupt_repaired += scrub.repaired
            if self.tracer.want_request_detail:
                self.tracer.instant(
                    "scrub",
                    INTEGRITY_TRACK,
                    pages=scrub.pages_scanned,
                    detected=scrub.detected,
                    repaired=scrub.repaired,
                    released=scrub.released,
                )

    def _rebuild_sweep(self, elapsed_s, now_s, counters) -> None:
        sweep = self.storage_ha.background_sweep(elapsed_s, now_s)
        if sweep is not None and sweep.pages_rebuilt:
            counters.rebuild_pages += sweep.pages_rebuilt

    @property
    def planes(self) -> tuple[str, ...]:
        """The per-read planes built, in draw order — ``"faults"`` (the
        failure/retry/spike process), then ``"integrity"`` (corruption
        draw and verify-on-read) — named as :meth:`plane_totals` prefixes
        them."""
        return tuple(plane for plane, _ in self._totals)

    def plane_totals(self) -> dict[str, int]:
        """Cumulative counters of the planes that exist, keyed by the
        metric names a run publishes them under (``faults.*``,
        ``integrity.*``)."""
        return {
            f"{plane}.{name}": total
            for plane, read in self._totals
            for name, total in read().items()
        }

    def publish_since(self, baseline: dict[str, int], registry) -> None:
        """Publish what the planes counted since ``baseline`` (an earlier
        :meth:`plane_totals`), so the registry agrees with a report that
        excludes the warm-up.  Pages in quarantine is a level, not a
        total: the scrubber releases the pages it repairs."""
        for name, total in self.plane_totals().items():
            if total != baseline[name]:
                registry.counter(name).inc(total - baseline[name])
        for name, level in self._levels:
            registry.gauge(name).set(level())

    # ------------------------------------------------------------------
    # What the constructor chooses between

    def _healthy_masks(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.system.num_ssds
        return np.ones(n, dtype=bool), np.zeros(n, dtype=bool)

    def _degraded_masks(self) -> tuple[np.ndarray, np.ndarray]:
        active, _ = self.fault_array.device_states()
        return active, self.fault_array.stale_device_mask()

    def _all_direct(self, pages, avoid=None) -> HARouteOutcome:
        """No fault machinery: every page is read from its home device,
        unless the caller avoids that device."""
        if avoid is None:
            return HARouteOutcome(n_direct=len(pages))
        return _split_lost(avoid[pages % self.system.num_ssds])

    def _route_unprotected(self, pages, avoid=None) -> HARouteOutcome:
        """No redundancy: unavailable pages, and pages homed on an avoided
        device, are known-lost and skip storage."""
        lost = self.fault_array.unavailable_page_mask(pages)
        if avoid is not None:
            lost = lost | avoid[pages % self.system.num_ssds]
        return _split_lost(lost)

    def _charge(
        self, entries: list[TransferCounters]
    ) -> tuple[BatchFaultOutcome, float]:
        """Resolve one storage batch's faults; re-route what never arrived.

        Reads that exhausted the retry policy (or its time budget) are
        served by the fallback tier; their bytes never arrive from
        storage.  Retried commands (``outcome.retries``) occupy device
        service like fresh ones, which the caller prices; ``spike_s`` is
        the elapsed-time cost of the batch's tail-latency requests.
        """
        n_requests = sum(c.storage_requests for c in entries)
        outcome, n_spiked = draw_faults(self.faults, n_requests, entries)
        if outcome.unrecovered:
            page_bytes = self.page_bytes
            weights = [c.storage_requests for c in entries]
            for counters, unrecovered in zip(
                entries, apportion(outcome.unrecovered, weights)
            ):
                counters.storage_bytes = max(
                    0, counters.storage_bytes - unrecovered * page_bytes
                )
                counters.fallback_requests += unrecovered
                counters.fallback_bytes += unrecovered * page_bytes
        return outcome, self.fault_array.tail_extra_time(n_spiked)


# ----------------------------------------------------------------------
# Stages


def bypass(
    stack: StorageStack,
    cpu_buffer: ConstantCPUBuffer | None,
    nodes: np.ndarray,
) -> tuple[int, np.ndarray]:
    """Split a batch's input ``nodes`` at the constant CPU buffer.

    Returns ``(n_buffered, pages)``: how many nodes the buffer serves
    (Section 3.3), and the pages of the rest, left for the GPU cache and
    storage.  Without a buffer every node's page is left.
    """
    if cpu_buffer is None:
        return 0, stack.layout.pages_for_nodes(nodes)
    buffered = cpu_buffer.contains(nodes)
    pages = stack.layout.pages_for_nodes(nodes[~buffered])
    return int(buffered.sum()), pages


def probe(
    stack: StorageStack,
    cache: GPUSoftwareCache,
    pages: np.ndarray,
    counters: TransferCounters,
    now_s: float = 0.0,
) -> np.ndarray:
    """Look ``pages`` up in the GPU software cache; returns the misses."""
    hit_mask = cache.access(pages)
    n_hits = int(hit_mask.sum())
    counters.gpu_cache_hits += n_hits
    counters.gpu_cache_bytes += n_hits * stack.page_bytes
    return pages[~hit_mask]


def _skip_quarantined(stack, cache, pages, counters, now_s) -> np.ndarray:
    """Entry stage before ``probe``, beside a ledger: quarantined pages
    never touch cache or storage — their registered reuse units are
    released and they are served from the fallback tier."""
    if stack.ledger.num_quarantined:
        qmask = stack.ledger.quarantined_mask(pages)
        if qmask.any():
            n_quarantine = int(qmask.sum())
            cache.forget_future(pages[qmask])
            pages = pages[~qmask]
            counters.fallback_requests += n_quarantine
            counters.fallback_bytes += n_quarantine * stack.page_bytes
    return pages


def route(
    stack: StorageStack,
    pages: np.ndarray,
    counters: TransferCounters,
    *,
    avoid: np.ndarray | None = None,
) -> HARouteOutcome:
    """Decide which copy serves each miss page and account the split.

    With redundancy, unavailable pages redirect to a surviving replica or
    reconstruct from parity; without it they are known-unavailable and
    skip storage.  ``avoid`` (a per-device mask) forbids further devices
    under every router — an open breaker is a routing decision, not a
    device state: a page homed on an avoided device goes to another copy
    when one exists, and is lost otherwise.  Only pages with no live copy
    fall back to the CPU mirror (``lost_mask`` marks them; it may be
    ``None`` when ``n_lost`` is zero).
    """
    out = stack.router(pages, avoid=avoid) if len(pages) else HARouteOutcome()
    page_bytes = stack.page_bytes
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


def _route_entry(stack, cache, pages, counters, now_s) -> np.ndarray:
    """``route`` as an entry stage: hands on the pages storage serves."""
    routed = route(stack, pages, counters)
    return pages[~routed.lost_mask] if routed.n_lost else pages


def verify(
    stack: StorageStack,
    pages: np.ndarray,
    counters: TransferCounters,
    now_s: float,
    cache: GPUSoftwareCache | None = None,
) -> VerifyOutcome:
    """Run storage-served ``pages`` through the corruption draw and verifier.

    ``stack`` has an integrity plane.  Redirected pages are verified
    exactly like primary reads, and so are full-graph spill pages, which
    the sweep prices itself.  Pages condemned this round are re-served by
    the fallback tier and, when a ``cache`` is given, invalidated so
    unverified bytes are never admitted.
    """
    faults = stack.faults
    origins = None
    if faults is not None and faults.plan.has_corruption and len(pages):
        kinds, origins = faults.corruption_kinds(
            pages, now_s, stack.system.num_ssds
        )
    else:
        kinds = np.zeros(len(pages), dtype=np.uint8)
    outcome = stack.verifier.process(
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
    counters.fallback_bytes += quarantined * stack.page_bytes
    return outcome


def _verify_entry(stack, cache, pages, counters, now_s) -> np.ndarray:
    """``verify`` as the last entry stage, over every storage-served page
    (redirected replicas included): pages condemned this round get their
    good bytes over the CPU path, and what slipped through is queued on
    ``stack.undetected``."""
    outcome = verify(stack, pages, counters, now_s, cache)
    counters.storage_bytes -= outcome.quarantined * stack.page_bytes
    stack.undetected.append(outcome.undetected_pages)
    return outcome.undetected_pages


def draw_faults(
    faults: FaultInjector,
    n_requests: int,
    entries: list[TransferCounters],
) -> tuple[BatchFaultOutcome, int]:
    """Draw the fault process once for a batch and count it on ``entries``.

    One ``resolve_batch`` and one ``spike_count`` draw per batch, in that
    order; returns ``(outcome, n_spiked)``.  Injected failures, retries
    and spikes are apportioned over the entries by their share of the
    batch's storage requests.
    """
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
