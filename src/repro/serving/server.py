"""The modeled-time online inference server over the GIDS storage stack.

One request = one seed node: sample its neighborhood on the GPU, redirect
hot features to the constant CPU buffer, look the rest up in the BaM GPU
software cache, fetch the misses from the SSD array with GPU-initiated
direct storage accesses, then run the forward pass — the training loader's
sample→fetch→aggregate path driven per-request instead of per-epoch.

Requests arrive open-loop (the :class:`~repro.serving.arrival
.ArrivalProcess` does not wait for anyone) and queue for the single modeled
pipeline.  The event loop is discrete and deterministic: arrivals are
generated in order, and before each arrival is admitted, every queued
request whose service would start earlier is completed — so the queue state
any admission decision sees is exactly the state at that modeled instant.

The protection layers (admission control, shedding, per-device breakers,
hedged reads, brownout) are owned here and all share the same modeled
clock.  With ``serving.protection`` off, the queue is unbounded and every
layer is inert — the configuration that shows the textbook latency collapse
past saturation.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..cache.gpu_cache import GPUSoftwareCache
from ..config import LoaderConfig, SystemConfig
from ..core import readpath
from ..errors import ServingError
from ..faults import FaultPlan, RetryPolicy
from ..graph.datasets import ScaledDataset
from ..sampling.neighbor import NeighborSampler
from ..sim.counters import TransferCounters
from ..state import Stateful, child, each, mapping, rng_state, scalar, seq
from ..telemetry.metrics import Histogram, MetricsRegistry
from ..telemetry.tracer import Tracer, ensure_tracer
from ..utils import as_rng
from .admission import (
    ADMIT,
    REJECT_DEADLINE,
    REJECT_QUEUE,
    SHED,
    AdmissionController,
)
from .arrival import ArrivalProcess, Request
from .breaker import PROBES, BreakerBoard, HALF_OPEN
from .brownout import BrownoutController
from .config import DEFAULT_BROWNOUT_LEVELS, ArrivalConfig, ServingConfig
from .hedging import HedgePolicy
from .report import ServingReport, ServingStats
from ..telemetry.context import TraceContext, request_trace_id
from ..telemetry.tracks import HA_TRACK, SERVING_TRACK

#: Verdict name → ServingStats field.
_VERDICT_FIELDS = {
    SHED: "shed",
    REJECT_QUEUE: "rejected_queue",
    REJECT_DEADLINE: "rejected_deadline",
}

#: Modeled cost of discovering a dead device the hard way (a read into a
#: dropped device times out); the cost an open breaker short-circuits.
DEVICE_TIMEOUT_S = 0.01


def _queue_entry(entry: dict) -> tuple[int, int, Request]:
    """A stored request back in its ``(priority, index, request)`` slot."""
    request = Request.from_dict(entry)
    return request.priority, request.index, request


class InferenceServer(Stateful):
    """Online inference over the shared storage stack, in modeled time.

    Args:
        dataset: the (scaled) graph dataset served.
        system: hardware configuration (GPU, CPU, PCIe, SSD array).
        config: GIDS capacity knobs (GPU cache bytes, CPU buffer fraction).
        arrival: open-loop traffic description.
        serving: overload-protection configuration.
        fanouts: full-quality sampling fanouts; brownout levels scale them.
        hot_nodes: optional precomputed hot-node ranking for the CPU
            buffer (computed from ``config.hot_node_metric`` otherwise).
        framework_overhead_s: fixed software cost per served request.
        seed: RNG seed for sampling and cache eviction (the arrival
            process and fault injector each keep their own stream).
        fault_plan: optional fault scenario shared with the training path.
        retry_policy: overrides the plan's embedded retry policy.
        replication: copies of each feature page across the array (>= 2
            lets reads behind a dead device or an open breaker redirect
            to a surviving replica instead of the CPU mirror).
        parity: k+1 parity-group redundancy instead of replication.
        rebuild_iops: background IOPS budget for the online rebuilder.
        tracer: optional telemetry tracer; breaker and brownout
            transitions become instants, and (at ``request`` detail) each
            served request records a span on the ``serving`` track.
        monitor: optional SLO monitor override for the brownout
            controller.
    """

    name = "GIDS-serve"

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        config: LoaderConfig | None = None,
        *,
        arrival: ArrivalConfig | None = None,
        serving: ServingConfig | None = None,
        fanouts: tuple[int, ...] = (10, 5, 5),
        hot_nodes: np.ndarray | None = None,
        framework_overhead_s: float = 150e-6,
        seed: int | np.random.Generator | None = 0,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        replication: int = 1,
        parity: bool = False,
        rebuild_iops: float = 0.0,
        tracer: Tracer | None = None,
        monitor=None,
    ) -> None:
        self.dataset = dataset
        self.system = system
        self.config = config if config is not None else LoaderConfig()
        self.arrival_config = (
            arrival if arrival is not None else ArrivalConfig()
        )
        self.serving = serving if serving is not None else ServingConfig()
        self.fanouts = tuple(int(f) for f in fanouts)
        self.framework_overhead_s = float(framework_overhead_s)
        self.tracer = tracer = ensure_tracer(tracer)
        self._rng = as_rng(seed)

        # --- shared storage stack --------------------------------------
        self.fault_plan = fault_plan
        self.stack = readpath.StorageStack(
            dataset,
            system,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            replication=replication,
            parity=parity,
            rebuild_iops=rebuild_iops,
            tracer=tracer,
        )
        self.store = self.stack.store
        self.layout = self.stack.layout
        self.ssd = self.stack.ssd
        self.pcie = self.stack.pcie
        self.gpu = self.stack.gpu
        self.faults = self.stack.faults
        self.fault_array = self.stack.fault_array
        self.storage_ha = self.stack.storage_ha
        # Pages behind an open breaker or a dead device go to a surviving
        # copy when redundancy exists, to the CPU mirror otherwise.
        self._reroute = (
            self._reroute_to_mirror
            if self.storage_ha is None
            else self._reroute_to_copy
        )

        cache_lines = int(
            self.config.gpu_cache_bytes // self.layout.page_bytes
        )
        self._cache_rng = self._rng.spawn(1)[0]
        self.cache = GPUSoftwareCache(cache_lines, seed=self._cache_rng)
        self.cache.tracer = tracer
        self.cpu_buffer = self.stack.build_cpu_buffer(
            dataset, self.config, hot_nodes, self._rng
        )

        # One sampler per brownout level (scaled fanouts), sharing the
        # sampling RNG: the level sequence is deterministic, so the draw
        # sequence is too.
        self._samplers = tuple(
            NeighborSampler(
                dataset.graph,
                self._scaled(level.fanout_scale),
                seed=self._rng,
            )
            for level in DEFAULT_BROWNOUT_LEVELS
        )

        # --- traffic and protection ------------------------------------
        self.arrivals = ArrivalProcess(
            self.arrival_config, dataset.num_nodes
        )
        self.registry: MetricsRegistry = tracer.metrics
        protection = self.serving.protection
        self.admission = AdmissionController()
        self.breakers = BreakerBoard(system.num_ssds) if protection else None
        self.hedge = HedgePolicy() if protection else None
        self.brownout = (
            BrownoutController(
                self.serving, self.registry, monitor=monitor, tracer=tracer
            )
            if protection
            else None
        )

        # --- run state --------------------------------------------------
        self.stats = ServingStats()
        self.counters = TransferCounters()
        self._queue: list[tuple[int, int, Request]] = []  # (priority, idx, _)
        self._now_s = 0.0
        self._busy_until_s = 0.0
        self._busy_s = 0.0
        self._last_completion_s = 0.0
        self._latencies: list[float] = []
        self._latency_priorities: list[int] = []
        self._deadline_flags: list[bool] = []
        self._latency_hist = Histogram("serving.latency_s")
        self._gauges = None  # handles, resolved at the first publish
        self._stage_seconds = {
            "sampling": 0.0,
            "aggregation": 0.0,
            "transfer": 0.0,
            "training": 0.0,
        }
        self.degraded_requests = 0
        self.stale_requests = 0
        self.stale_pages = 0

    # ------------------------------------------------------------------
    # Construction helpers

    def _scaled(self, scale: float) -> tuple[int, ...]:
        return tuple(max(1, int(round(f * scale))) for f in self.fanouts)

    # ------------------------------------------------------------------
    # Event loop

    def serve(self, num_requests: int) -> None:
        """Generate and process ``num_requests`` arrivals (open loop).

        Completions interleave naturally: before each arrival is decided,
        queued requests whose service starts earlier are finished.  Call
        :meth:`drain` afterwards to complete what is still queued.
        """
        if num_requests < 0:
            raise ServingError("num_requests must be non-negative")
        for _ in range(num_requests):
            self.step()

    def step(self) -> dict:
        """Process exactly one arrival; returns its admission verdict."""
        request = self.arrivals.next_request()
        # Finish everything that completes before this arrival so the
        # admission decision sees the true queue at that instant.
        self._complete_until(request.arrival_s)
        self._now_s = request.arrival_s
        priority = request.priority
        self.stats.count("offered", priority)

        if self.serving.protection:
            backlog = max(0.0, self._busy_until_s - request.arrival_s)
            verdict = self.admission.decide(
                priority,
                request.arrival_s,
                request.deadline_s,
                len(self._queue),
                backlog,
            )
        else:
            verdict = ADMIT

        if verdict == ADMIT:
            self.stats.count("admitted", priority)
            heapq.heappush(self._queue, (priority, request.index, request))
        else:
            self.stats.count(_VERDICT_FIELDS[verdict], priority)
        self._publish_gauges()
        return {"request": request.index, "verdict": verdict}

    def drain(self) -> None:
        """Serve every request still waiting in the queue."""
        self._complete_until(float("inf"))

    def _complete_until(self, horizon_s: float) -> None:
        """Serve queued requests whose service starts before ``horizon_s``."""
        while self._queue:
            start_s = max(self._busy_until_s, self._queue[0][2].arrival_s)
            if start_s >= horizon_s:
                break
            request = heapq.heappop(self._queue)[2]
            if self.serving.protection and self._expired(request, start_s):
                # Dropped at dequeue: its deadline can no longer be met,
                # so serving it would only delay everyone behind it.
                self.stats.count("expired", request.priority)
                continue
            self._serve_one(request, start_s)

    def _expired(self, request: Request, start_s: float) -> bool:
        estimate = self.admission.service_estimate_s or 0.0
        return start_s + estimate > request.deadline_at_s

    def _serve_one(self, request: Request, start_s: float) -> None:
        tracer = self.tracer
        ctx = None
        if tracer.want_request_detail:
            # Causal root: every span/instant recorded while the context
            # is active — cache tiers, breakers, HA redirects, retries —
            # is stamped with this request's trace id.
            ctx = TraceContext(
                request_trace_id(request.index), origin="serve"
            )
            with tracer.context(ctx):
                tracer.instant(
                    "admission",
                    SERVING_TRACK,
                    at_s=start_s,
                    priority=request.priority,
                    queued_s=start_s - request.arrival_s,
                )
                service_s = self._service_time(request, start_s)
        else:
            service_s = self._service_time(request, start_s)
        completion_s = start_s + service_s
        self._busy_until_s = completion_s
        self._busy_s += service_s
        self._last_completion_s = completion_s
        latency = completion_s - request.arrival_s
        priority = request.priority
        self.stats.count("completed", priority)
        met = latency <= request.deadline_s
        self.stats.count("deadline_met" if met else "deadline_missed",
                         priority)
        self._latencies.append(latency)
        self._latency_priorities.append(priority)
        self._deadline_flags.append(met)
        self._latency_hist.observe(latency)
        self.admission.observe_service(service_s)
        if self.brownout is not None:
            self.brownout.level_seconds[self.brownout.level_index] += (
                service_s
            )
            self.brownout.observe(latency, completion_s)
        tracer.clock_s = max(tracer.clock_s, completion_s)
        if ctx is not None:
            with tracer.context(ctx):
                tracer.record(
                    f"request {request.index}",
                    SERVING_TRACK,
                    start_s=start_s,
                    duration_s=service_s,
                    priority=priority,
                    latency_s=latency,
                    deadline_met=met,
                )
                tracer.instant(
                    "complete",
                    SERVING_TRACK,
                    at_s=completion_s,
                    latency_s=latency,
                    deadline_met=met,
                )
        self._publish_gauges(completed=True)
        if tracer.enabled:
            tracer.poll(completion_s)

    # ------------------------------------------------------------------
    # Per-request service model

    def _service_time(self, request: Request, start_s: float) -> float:
        """Modeled service time of one request on the shared stack."""
        level_index = 0 if self.brownout is None else self.brownout.level_index
        level = DEFAULT_BROWNOUT_LEVELS[level_index]
        if level_index > 0:
            self.degraded_requests += 1
        sampler = self._samplers[level_index]
        batch = sampler.sample(np.asarray([request.node], dtype=np.int64))
        nodes = batch.input_nodes
        counters = TransferCounters()

        sampling_s = self.gpu.sampling_time(
            batch.num_sampled, n_kernels=sampler.num_layers
        )
        stamp = self.tracer.want_request_detail
        if stamp:
            self.tracer.record(
                "sample",
                SERVING_TRACK,
                start_s=start_s,
                duration_s=sampling_s,
                nodes=len(nodes),
                sampled=batch.num_sampled,
                brownout_level=level_index,
            )

        if self.cpu_buffer is not None:
            buffered = self.cpu_buffer.contains(nodes)
        else:
            buffered = np.zeros(len(nodes), dtype=bool)
        n_buffered = int(buffered.sum())
        counters.cpu_buffer_requests += n_buffered
        counters.cpu_buffer_bytes += n_buffered * self.store.feature_bytes

        pages = self.layout.pages_for_nodes(nodes[~buffered])
        counters.page_faults += len(pages)
        miss_pages = readpath.probe(self.stack, self.cache, pages, counters)

        storage_s = 0.0
        if level.cache_only:
            # Degraded to cache-only: misses are answered from stale
            # approximations instead of storage.  Free of device time, but
            # accounted — staleness is a quality debt, not a freebie.
            if len(miss_pages):
                self.stale_requests += 1
                self.stale_pages += len(miss_pages)
                if stamp:
                    self.tracer.instant(
                        "stale.cache_only",
                        SERVING_TRACK,
                        at_s=start_s + sampling_s,
                        pages=len(miss_pages),
                    )
        elif len(miss_pages):
            if stamp:
                self.tracer.instant(
                    "fetch",
                    SERVING_TRACK,
                    at_s=start_s + sampling_s,
                    pages=len(miss_pages),
                    cache_hits=counters.gpu_cache_hits,
                    buffered=n_buffered,
                )
            storage_s = self._storage_time(miss_pages, start_s, counters)

        ingress_s, hbm_s = readpath.transfer(
            self.stack, [counters], storage_s
        )
        inference_s = self.gpu.training_time(len(nodes))
        if stamp:
            self.tracer.record(
                "aggregate",
                SERVING_TRACK,
                start_s=start_s + sampling_s,
                duration_s=ingress_s + hbm_s,
                storage_s=storage_s,
            )
            self.tracer.record(
                "infer",
                SERVING_TRACK,
                start_s=start_s + sampling_s + ingress_s + hbm_s,
                duration_s=inference_s,
            )

        self._stage_seconds["sampling"] += sampling_s
        self._stage_seconds["aggregation"] += ingress_s + hbm_s
        self._stage_seconds["training"] += inference_s
        self.counters.merge(counters)
        counters.publish(self.registry)
        return (
            self.framework_overhead_s
            + sampling_s
            + ingress_s
            + hbm_s
            + inference_s
        )

    def _storage_time(
        self,
        miss_pages: np.ndarray,
        start_s: float,
        counters: TransferCounters,
    ) -> float:
        """Latency of the storage fetch, through breakers/faults/hedging.

        Routing, fault resolution and their accounting are the shared
        stages of :mod:`repro.core.readpath`; what lives here is serving
        policy — which devices the breaker board lets a request touch,
        what a dead device costs to discover, and hedging.
        """
        num_ssds = self.system.num_ssds
        page_bytes = self.layout.page_bytes
        devices = miss_pages % num_ssds
        array = self.stack.advance(start_s)
        active, stale = self.stack.device_masks()
        timeout_s = 0.0
        stamp = self.tracer.want_request_detail

        def reroute(pages_subset: np.ndarray, device: int) -> None:
            self._reroute(
                pages_subset, device, counters, start_s, active, stale
            )

        # At most num_ssds devices: a set, not np.unique's sort machinery.
        for device in sorted(set(devices.tolist())):
            dev_pages = miss_pages[devices == device]
            n_dev = len(dev_pages)
            breaker = (
                self.breakers[device] if self.breakers is not None else None
            )
            if breaker is not None and not breaker.allows_storage(
                start_s, self.tracer
            ):
                # Open breaker: reroute — to a surviving replica when
                # redundancy exists, to the CPU mirror otherwise.
                reroute(dev_pages, device)
                continue
            n_probe = n_dev
            if breaker is not None and breaker.state == HALF_OPEN:
                # Half-open: only probe traffic touches the device.
                n_probe = min(n_dev, PROBES)
                reroute(dev_pages[n_probe:], device)
            if not active[device]:
                # Dead device discovered the hard way: the probe times
                # out, then reroutes.
                timeout_s += DEVICE_TIMEOUT_S
                if stamp:
                    self.tracer.instant(
                        "device.timeout",
                        "faults",
                        at_s=start_s,
                        device=device,
                        pages=int(n_probe),
                        timeout_s=DEVICE_TIMEOUT_S,
                    )
                reroute(dev_pages[:n_probe], device)
                if breaker is not None:
                    breaker.record(0, n_probe, start_s, self.tracer)
            elif stale[device]:
                # The device answers (no breaker failure) but its pages
                # predate its dropout; serve them from a copy until the
                # rebuilder marks the device clean.
                reroute(dev_pages[:n_probe], device)
                if breaker is not None:
                    breaker.record(n_probe, 0, start_s, self.tracer)
            else:
                counters.storage_requests += n_probe
                counters.storage_bytes += n_probe * page_bytes
                if breaker is not None:
                    breaker.record(n_probe, 0, start_s, self.tracer)

        n_storage = counters.storage_requests
        latency = timeout_s
        base = 0.0
        if n_storage:
            fault, spike_s = self.stack.charge([counters])
            if stamp and (fault.retries or fault.unrecovered):
                self.tracer.instant(
                    "retry",
                    "faults",
                    at_s=start_s + timeout_s,
                    retries=fault.retries,
                    backoff_s=fault.backoff_s,
                    unrecovered=fault.unrecovered,
                )
            # A read that exhausted its retries never completed on the
            # device: the server neither counts it as a storage request
            # nor charges it a service slot.
            counters.storage_requests -= fault.unrecovered
            base = array.batch_service_time(
                counters.storage_requests
                + fault.retries
                + counters.reconstruct_reads
                - counters.parity_reconstructs
            )
            latency += base + fault.backoff_s + spike_s

        if self.hedge is not None and n_storage:
            hedged = self.hedge.maybe_hedge(latency, base)
            if stamp and hedged != latency:
                self.tracer.instant(
                    "hedge.won",
                    SERVING_TRACK,
                    at_s=start_s + hedged,
                    saved_s=latency - hedged,
                )
            latency = hedged

        # Rebuild rides the idle IOPS left behind by this request's
        # storage window.
        self.stack.background(latency, start_s + latency, counters)
        return latency

    def _reroute_to_mirror(
        self, pages, device, counters, start_s, active, stale
    ) -> None:
        """No redundancy: pages kept off ``device`` come from the mirror."""
        n_pages = len(pages)
        counters.fallback_requests += n_pages
        counters.fallback_bytes += n_pages * self.layout.page_bytes
        if n_pages and self.tracer.want_request_detail:
            self.tracer.instant(
                "fallback.mirror",
                "cpu.buffer",
                at_s=start_s,
                device=device,
                pages=n_pages,
            )

    def _reroute_to_copy(
        self, pages, device, counters, start_s, active, stale
    ) -> None:
        """Redundancy: route around ``device`` and whatever else is down;
        only pages with no live copy left reach the mirror."""
        if len(pages) == 0:
            return
        avoid = ~(active & ~stale)
        avoid[device] = True
        out = readpath.route(self.stack, pages, counters, avoid=avoid)
        if self.tracer.want_request_detail:
            self.tracer.instant(
                "ha.redirect",
                HA_TRACK,
                at_s=start_s,
                device=device,
                pages=len(pages),
                replica=out.n_replica,
                reconstruct=out.n_reconstruct,
                lost=out.n_lost,
            )

    # ------------------------------------------------------------------
    # Metrics

    def _publish_gauges(self, completed: bool = False) -> None:
        registry = self.registry
        if self._gauges is None:
            # Resolved at the first publish, not at construction, so the
            # registry (it rides in the snapshot) gains them when it used to.
            self._gauges = (
                registry.gauge("serving.shed_fraction"),
                registry.gauge("serving.queue_depth"),
                registry.gauge("serving.breakers_open")
                if self.breakers is not None else None,
                registry.gauge("serving.brownout_level")
                if self.brownout is not None else None,
            )
        if completed:
            # The only place the histogram's count moves, so the bucket walk
            # runs once per completion and not once more per arrival.
            registry.gauge("serving.p99").set(
                self._latency_hist.percentile(99)
            )
        shed, depth, breakers_open, level = self._gauges
        shed.set(self.stats.shed_fraction)
        depth.set(len(self._queue))
        if breakers_open is not None:
            breakers_open.set(self.breakers.open_count)
        if level is not None:
            level.set(self.brownout.level_index)

    # ------------------------------------------------------------------
    # Reporting

    def report(self) -> ServingReport:
        """Snapshot the run into a :class:`ServingReport`."""
        duration = max(self._last_completion_s, self._now_s)
        hedge = {
            "issued": self.hedge.issued if self.hedge else 0,
            "won": self.hedge.won if self.hedge else 0,
            "budget_spent_s": (
                self.hedge.budget.spent_s if self.hedge else 0.0
            ),
        }
        levels = DEFAULT_BROWNOUT_LEVELS
        return ServingReport(
            stats=self.stats,
            latencies=list(self._latencies),
            latency_priorities=list(self._latency_priorities),
            deadline_flags=list(self._deadline_flags),
            protection=self.serving.protection,
            arrival={
                "shape": self.arrival_config.shape,
                "rate": self.arrival_config.rate,
                "seed": self.arrival_config.seed,
                "deadline_s": self.arrival_config.deadline_s,
            },
            slo_p99_s=self.serving.slo_p99_s,
            duration_s=duration,
            busy_s=self._busy_s,
            stage_seconds=dict(self._stage_seconds),
            counters=self.counters.snapshot(),
            degraded_requests=self.degraded_requests,
            stale_requests=self.stale_requests,
            stale_pages=self.stale_pages,
            hedge=hedge,
            breaker_transitions=(
                self.breakers.transitions() if self.breakers else []
            ),
            breaker_open_count=(
                self.breakers.open_count if self.breakers else 0
            ),
            brownout_transitions=(
                [dict(t) for t in self.brownout.transitions]
                if self.brownout
                else []
            ),
            brownout_level_seconds=(
                list(self.brownout.level_seconds)
                if self.brownout
                else [0.0] * len(levels)
            ),
            brownout_level_names=[level.name for level in levels],
        )

    # ------------------------------------------------------------------
    # Checkpointing

    #: Every stateful component, for bit-identical resume.
    STATE = (
        scalar("now_s", float, attr="_now_s"),
        scalar("busy_until_s", float, attr="_busy_until_s"),
        scalar("busy_s", float, attr="_busy_s"),
        scalar("last_completion_s", float, attr="_last_completion_s"),
        rng_state(),
        child("arrivals"),
        # Stored in sorted order, which is already heap order.
        seq(
            "queue", _queue_entry, attr="_queue",
            save=lambda queue: [r.to_dict() for _, _, r in sorted(queue)],
        ),
        child("stats"),
        child("admission"),
        child("cache"),
        child("counters", cls=TransferCounters),
        seq("latencies", float, attr="_latencies"),
        seq("latency_priorities", int, attr="_latency_priorities"),
        seq("deadline_flags", bool, attr="_deadline_flags", save=each(bool)),
        child("latency_hist", "_latency_hist"),
        mapping("stage_seconds", float, attr="_stage_seconds"),
        scalar("degraded_requests", int),
        scalar("stale_requests", int),
        scalar("stale_pages", int),
        child("breakers", optional=True),
        child("hedge", optional=True),
        child("brownout", optional=True),
        child("faults", optional=True),
        child("fault_array", optional=True),
        child("storage_ha", optional=True),
        # The registry is the tracer's; only a recording tracer's state is
        # saved (by whoever owns it), so an untraced server saves it here.
        child(
            "registry",
            lambda self: None if self.tracer.enabled else self.registry,
            omit=True, lenient=True,
        ),
    )
