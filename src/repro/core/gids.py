"""The GIDS dataloader: GPU-oriented data preparation for GNN training.

Per iteration the loader (Fig. 1 of the paper):

1. samples the mini-batch's computational graph on the GPU, reading the
   structure data pinned in CPU memory over UVA (Section 3.5);
2. redirects feature accesses for hot nodes to the constant CPU buffer
   (Section 3.3);
3. looks the remaining pages up in the BaM GPU software cache, whose
   eviction is steered by the window buffer (Section 3.4);
4. fetches the missing pages from the SSDs with GPU-initiated direct
   storage accesses, merging the work of several future iterations when the
   dynamic storage access accumulator says more in-flight requests are
   needed (Section 3.2);
5. hands the assembled mini-batch to the training stage, which runs
   decoupled from data preparation.

All sampling and cache decisions are functionally executed; stage times come
from the calibrated device models.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..cache.gpu_cache import GPUSoftwareCache
from ..config import LoaderConfig, SystemConfig
from ..errors import ConfigError
from ..faults import FaultPlan, RetryPolicy
from ..graph.datasets import ScaledDataset
from ..integrity import VERIFY_BANDWIDTH_BYTES_PER_S
from ..pipeline.loader import MiniBatchLoader
from ..pipeline.metrics import STAGES, IterationMetrics, StageTimes
from ..sampling.minibatch import MiniBatch
from ..sim.counters import TransferCounters
from ..state import (
    Stateful,
    child,
    each,
    group,
    guard,
    rng_state,
    save,
    scalar,
    seq,
)
from ..telemetry.context import TraceContext, step_trace_id
from ..telemetry.tracer import Tracer, ensure_tracer
from ..telemetry.tracks import INTEGRITY_TRACK, STAGE_TRACKS
from . import readpath
from .accumulator import DynamicAccessAccumulator
from .window import WindowBuffer


class GIDSDataLoader(MiniBatchLoader, Stateful):
    """GPU-initiated direct-storage-access dataloader.

    Args:
        dataset: the (scaled) graph dataset to train on.
        system: hardware configuration (GPU, CPU, PCIe, SSD array).
        config: GIDS knobs; the defaults reproduce Section 4.1.
        batch_size: seed nodes per mini-batch.
        fanouts: neighbor-sampling fanouts (ignored when ``sampler_kind`` is
            ``"ladies"``).
        sampler_kind: ``"neighbor"`` (GraphSAGE), ``"ladies"``, or
            ``"hetero"`` (typed fanouts; requires a heterogeneous dataset).
        layer_sizes: per-layer node budgets for LADIES.
        hetero_fanouts: per-layer typed fanouts for the ``"hetero"``
            sampler; each entry is an int or a ``{type: cap}`` dict.
            Defaults to ``fanouts`` applied uniformly to every type.
        framework_overhead_s: fixed software cost per aggregation launch
            (DGL dataloader plumbing, kernel setup) — the stop-and-go
            boundary the accumulator amortizes away.
        features: optional materialized feature matrix (functional training).
        seed: RNG seed for sampling, shuffling and cache eviction.  The
            fault injector never shares this stream — fault draws come from
            the plan's own seed, so a fault plan cannot perturb sampling.
        fault_plan: optional fault-injection scenario (read failures, tail
            spikes, device dropout/slowdown/recovery, PCIe degradation).
            ``None`` or a null plan leaves every modeled time bit-identical
            to a loader without fault support.
        retry_policy: overrides the plan's embedded retry policy.
        verify_reads: integrity policy for storage-served pages —
            ``"off"`` (default; no digests are checked), ``"sample"``
            (each page verified with probability ``verify_sample_rate``)
            or ``"full"`` (every page verified).  Detected corruption is
            repaired by bounded re-read in modeled time; pages whose
            device copy is poisoned fall back to the CPU mirror and are
            quarantined.  ``"off"`` with no corruption in the plan keeps
            every modeled time bit-identical to a loader without
            integrity support.
        verify_sample_rate: per-page verify probability in ``"sample"``
            mode.
        scrub_iops: page reads per modeled second granted to the
            background scrubber (0 disables scrubbing).  The scrubber
            sweeps the page space between training groups, detecting and
            rewriting storm-poisoned pages the workload has not touched.
        replication: total copies of each feature page across the array
            (1 = today's unreplicated striping; bit-identical default).
            With 2 or more, reads whose home device is unavailable
            redirect to a surviving replica instead of the CPU mirror.
        parity: protect pages with k+1 rotating parity groups instead of
            replication (mutually exclusive with ``replication > 1``);
            unavailable pages are reconstructed from the ``k`` surviving
            group members at the modeled cost of ``k`` member reads.
        rebuild_iops: background device operations per modeled second
            granted to the online rebuilder (0 disables it) — same
            pay-for-what-you-use economics as ``scrub_iops``.
        tracer: optional :class:`~repro.telemetry.Tracer`.  When attached,
            the loader records stage spans on the modeled clock (and, at
            ``"request"`` detail, per-resource spans for the SSD batch,
            PCIe ingress, HBM reads, CPU-buffer redirects and fault
            resolution) and publishes transfer counters into the tracer's
            metrics registry.  Absent (the default), the loader holds a
            private disabled tracer: nothing is recorded and no call is made
            into it.
    """

    name = "GIDS"
    WARMUP = 10

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        config: LoaderConfig | None = None,
        *,
        batch_size: int = 1024,
        fanouts: tuple[int, ...] = (10, 5, 5),
        sampler_kind: str = "neighbor",
        layer_sizes: tuple[int, ...] | None = None,
        hetero_fanouts: tuple[int | dict[str, int], ...] | None = None,
        framework_overhead_s: float = 150e-6,
        features: np.ndarray | None = None,
        hot_nodes: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        verify_reads: str = "off",
        verify_sample_rate: float = 0.1,
        scrub_iops: float = 0.0,
        replication: int = 1,
        parity: bool = False,
        rebuild_iops: float = 0.0,
        tracer: Tracer | None = None,
    ) -> None:
        if framework_overhead_s < 0:
            raise ConfigError("framework overhead must be non-negative")
        super().__init__(dataset, system, batch_size=batch_size, seed=seed)
        self.config = config if config is not None else LoaderConfig()
        self.framework_overhead_s = framework_overhead_s
        self.tracer = tracer = ensure_tracer(tracer)

        # The storage stack is strictly pay-for-what-you-use: with no fault
        # plan (or a null one), the redundancy defaults and integrity off,
        # the stack hands out the bare stages and the modeled times are
        # bit-identical to a loader without those planes.
        self.fault_plan = fault_plan
        self.stack = readpath.StorageStack(
            dataset,
            system,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            replication=replication,
            parity=parity,
            rebuild_iops=rebuild_iops,
            verify_reads=verify_reads,
            verify_sample_rate=verify_sample_rate,
            scrub_iops=scrub_iops,
            tracer=tracer,
            features=features,
        )
        self.store = self.stack.store
        self.layout = self.stack.layout
        self.ssd = self.stack.ssd
        self.pcie = self.stack.pcie
        self.gpu = self.stack.gpu
        self.faults = self.stack.faults
        self.fault_array = self.stack.fault_array
        self.storage_ha = self.stack.storage_ha
        self.ledger = self.stack.ledger
        self.verifier = self.stack.verifier
        self.scrubber = self.stack.scrubber
        # One entry per produced iteration: page ids whose corruption went
        # undetected, queued by the stack's verify stage (never, without
        # one) and consumed in order by :meth:`fetch_features`.
        self._pending_corrupt = self.stack.undetected

        self.sampler = self._build_sampler(
            sampler_kind, fanouts, layer_sizes, hetero_fanouts
        )

        cache_lines = int(self.config.gpu_cache_bytes // self.layout.page_bytes)
        # The cache gets its own spawned RNG stream so eviction draws never
        # perturb the sampling stream: two loaders with the same seed sample
        # identical batches regardless of their cache activity.
        self._cache_rng = self._rng.spawn(1)[0]
        self.cache = GPUSoftwareCache(cache_lines, seed=self._cache_rng)
        self.cache.tracer = tracer

        self.cpu_buffer = self.stack.build_cpu_buffer(
            dataset, self.config, hot_nodes, self._rng
        )
        self.accumulator = self._build_accumulator()
        if self.accumulator is not None:
            self.accumulator.tracer = tracer

        self.window = WindowBuffer(
            self.cache, self.config.window_depth, tracer=tracer
        )

    @property
    def overlapped(self) -> bool:
        """The accumulator decouples data preparation from training."""
        return self.config.accumulator_enabled

    # ------------------------------------------------------------------
    # Construction helpers

    def _build_accumulator(self):
        if not self.config.accumulator_enabled:
            return None
        # Under fault injection the accumulator sees the degradable array
        # view, so after a dropout it re-solves Eq. 2-3 against the
        # survivors' (lower) collective peak IOPS.
        return DynamicAccessAccumulator(
            array=self.stack.array,
            target_fraction=self.config.accumulator_target,
            max_merged_iterations=self.config.max_merged_iterations,
        )

    # ------------------------------------------------------------------
    # Sampling / window management

    def _sample_next(self) -> None:
        """Sample one future iteration and push it into the window."""
        batch = self._sample()
        nodes = batch.input_nodes
        if self.cpu_buffer is not None:
            buffered = self.cpu_buffer.contains(nodes)
            n_buffer_nodes = int(buffered.sum())
            cache_nodes = nodes[~buffered]
        else:
            n_buffer_nodes = 0
            cache_nodes = nodes
        pages = self.layout.pages_for_nodes(cache_nodes)
        sampling_time = self.gpu.sampling_time(
            batch.num_sampled, n_kernels=batch.num_layers
        )
        self.window.push(
            batch, pages, payload=(n_buffer_nodes, sampling_time)
        )

    def _fill_window(self) -> None:
        """Sample ahead until the look-ahead window is full."""
        target = max(self.window.depth, 0) + 1
        while len(self.window) < target:
            self._sample_next()

    # ------------------------------------------------------------------
    # Aggregation

    def _next_group(self, remaining: int):
        """Collect the iterations whose aggregation is merged into one batch."""
        group = []
        accumulated_nodes = 0
        while True:
            self._fill_window()
            entry = self.window.pop()
            group.append(entry)
            accumulated_nodes += entry.batch.num_input_nodes
            if self.accumulator is None:
                break
            if len(group) >= remaining:
                break
            if not self.accumulator.should_merge_more(
                accumulated_nodes, len(group)
            ):
                break
        return group

    def _aggregate_group(self, group) -> list[IterationMetrics]:
        """Serve one merged group's feature requests and model its time.

        Each entry runs probe -> route -> verify; the group then pays one
        charge (a single fault draw over the merged storage batch) and one
        transfer — the stages of :mod:`repro.core.readpath`.
        """
        page_bytes = self.layout.page_bytes
        tracer = self.tracer
        group_start_s = self._sim_now_s
        tracer.clock_s = group_start_s
        array = self.stack.advance(group_start_s)

        per_entry = [
            self._serve_entry(entry, group_start_s) for entry in group
        ]
        total_storage_pages = sum(c.storage_requests for c in per_entry)

        fault, spike_time = self.stack.charge(per_entry)
        fault_extra_time = fault.backoff_s + spike_time
        if tracer.want_request_detail and (
            fault_extra_time > 0.0 or fault.injected_failures
        ):
            tracer.record(
                "fault_resolution",
                "faults",
                start_s=group_start_s,
                duration_s=fault_extra_time,
                injected=fault.injected_failures,
                retries=fault.retries,
                unrecovered=fault.unrecovered,
                timed_out=fault.timed_out,
            )
        # Retried commands and repair re-reads occupy device service
        # exactly like fresh ones; parity reconstruction issues k member
        # reads for each rebuilt page, and the extra k-1 do too.  Digest
        # checks cost modeled hash time on every verified byte.  All are
        # zero whenever the matching plane is off.
        integrity_rereads = sum(c.integrity_rereads for c in per_entry)
        ha_extra_reads = sum(
            c.reconstruct_reads - c.parity_reconstructs for c in per_entry
        )
        service_requests = (
            total_storage_pages
            + fault.retries
            + integrity_rereads
            + ha_extra_reads
        )
        integrity_extra_time = (
            sum(c.verified_pages for c in per_entry)
            * page_bytes
            / VERIFY_BANDWIDTH_BYTES_PER_S
        )

        storage_time = (
            self.framework_overhead_s
            + array.batch_service_time(service_requests)
            + fault_extra_time
            + integrity_extra_time
        )
        ingress_time, hbm_time = readpath.transfer(
            self.stack, per_entry, storage_time
        )
        group_time = ingress_time + hbm_time

        if tracer.want_request_detail:
            self._trace_group_resources(
                tracer,
                group_start_s,
                storage_time=storage_time,
                service_requests=service_requests,
                ingress_time=ingress_time,
                hbm_time=hbm_time,
                storage_bytes=sum(c.storage_bytes for c in per_entry),
                cpu_bytes=sum(
                    c.cpu_buffer_bytes + c.fallback_bytes for c in per_entry
                ),
                hbm_bytes=sum(c.gpu_cache_bytes for c in per_entry),
            )
            if integrity_extra_time > 0.0:
                tracer.record(
                    "verify",
                    INTEGRITY_TRACK,
                    start_s=group_start_s,
                    duration_s=integrity_extra_time,
                    verified=sum(c.verified_pages for c in per_entry),
                    detected=sum(c.corrupt_detected for c in per_entry),
                    repaired=sum(c.corrupt_repaired for c in per_entry),
                    quarantined=sum(
                        c.corrupt_quarantined for c in per_entry
                    ),
                    rereads=integrity_rereads,
                )

        if self.accumulator is not None:
            total_requests = sum(c.total_requests for c in per_entry)
            self.accumulator.observe(total_storage_pages, total_requests)

        # Apportion the merged aggregation time across iterations by their
        # share of served feature bytes (equal split when all-zero).
        shares = np.array(
            [c.total_feature_bytes for c in per_entry], dtype=np.float64
        )
        if shares.sum() == 0:
            shares = np.ones(len(group))
        shares = shares / shares.sum()

        metrics = []
        for entry, counters, share in zip(group, per_entry, shares):
            _, sampling_time = entry.payload
            times = StageTimes(
                sampling=sampling_time,
                aggregation=float(share) * group_time,
                transfer=0.0,
                training=self.gpu.training_time(
                    entry.batch.num_input_nodes
                ),
            )
            metrics.append(self._metrics(entry.batch, times, counters))
        # Background sweeps overlap the group they follow (they soak up
        # idle device IOPS), so they advance no modeled time; their budget
        # is the group's elapsed time and their traffic is accounted on
        # the group's last iteration.
        group_elapsed = sum(m.times.total for m in metrics)
        self.stack.background(
            group_elapsed, group_start_s + group_elapsed, metrics[-1].counters
        )
        if tracer.want_request_detail and (
            ha_extra_reads or any(c.replica_redirects for c in per_entry)
        ):
            tracer.record(
                "degraded_reads",
                "storage.ha",
                start_s=group_start_s,
                duration_s=storage_time,
                replica_redirects=sum(
                    c.replica_redirects for c in per_entry
                ),
                parity_reconstructs=sum(
                    c.parity_reconstructs for c in per_entry
                ),
                reconstruct_reads=sum(
                    c.reconstruct_reads for c in per_entry
                ),
            )

        if tracer.enabled:
            self._trace_group_stages(tracer, group_start_s, metrics)
            tracer.metrics.histogram("ssd.batch_service_s").observe(
                storage_time
            )
            tracer.metrics.histogram("pcie.ingress_s").observe(ingress_time)

        # Advance the simulated clock so time-triggered device events
        # (dropout/recovery) fire at the right point of the run.
        self._sim_now_s += group_elapsed
        tracer.clock_s = self._sim_now_s
        return metrics

    def _serve_entry(self, entry, now_s: float) -> TransferCounters:
        """Run one iteration's pages through the stack's entry stages:
        probe -> route, then verify when there is a verifier."""
        n_buffer_nodes, _ = entry.payload
        counters = TransferCounters(
            cpu_buffer_requests=n_buffer_nodes,
            cpu_buffer_bytes=n_buffer_nodes * self.store.feature_bytes,
        )
        stack, cache, pages = self.stack, self.cache, entry.pages
        for stage in stack.entry_stages:
            pages = stage(stack, cache, pages, counters, now_s)
        return counters

    def _trace_group_resources(
        self,
        tracer: Tracer,
        start_s: float,
        *,
        storage_time: float,
        service_requests: int,
        ingress_time: float,
        hbm_time: float,
        storage_bytes: int,
        cpu_bytes: int,
        hbm_bytes: int,
    ) -> None:
        """Emit per-resource spans for one merged aggregation batch.

        All streams start at the group's base time (they run concurrently,
        which is exactly what the lanes should show); the HBM read follows
        the ingress phase because cached lines are consumed after the batch
        lands.
        """
        if service_requests:
            tracer.record(
                "storage_batch",
                "ssd",
                start_s=start_s,
                duration_s=storage_time,
                requests=service_requests,
                bytes=storage_bytes,
            )
        if ingress_time > 0.0:
            tracer.record(
                "ingress",
                "pcie",
                start_s=start_s,
                duration_s=ingress_time,
                storage_bytes=storage_bytes,
                cpu_bytes=cpu_bytes,
            )
        if hbm_time > 0.0:
            tracer.record(
                "hbm_read",
                "gpu.cache",
                start_s=start_s + ingress_time,
                duration_s=hbm_time,
                bytes=hbm_bytes,
            )
        if cpu_bytes:
            tracer.record(
                "redirect",
                "cpu.buffer",
                start_s=start_s,
                duration_s=cpu_bytes / self.pcie.cpu_path_bandwidth,
                bytes=cpu_bytes,
            )

    def _trace_group_stages(
        self, tracer: Tracer, start_s: float, metrics: list[IterationMetrics]
    ) -> None:
        """Emit per-iteration stage spans and publish transfer counters.

        The span durations are the *same floats* that land in the run
        report's :class:`~repro.pipeline.metrics.StageTimes`, so per-track
        trace totals agree exactly with the report's stage totals.  Spans
        lay out serially from the group's base time — the iteration order
        a non-overlapped execution would follow — which keeps every lane
        consistent with the modeled clock advance below.
        """
        cursor = start_s
        for m in metrics:
            t = m.times
            iteration = tracer.iteration
            # Shared constants, not names built per span: a snapshot
            # pickles each distinct string object once.
            for stage, lane in zip(STAGES, STAGE_TRACKS):
                duration = getattr(t, stage)
                if stage == "transfer" and not duration > 0.0:
                    continue  # the loader folds transfer into aggregation
                tracer.record(
                    stage,
                    lane,
                    start_s=cursor,
                    duration_s=duration,
                    iteration=iteration,
                )
                cursor += duration
            tracer.iteration = iteration + 1
            tracer.metrics.histogram("iteration.total_s").observe(t.total)
            m.counters.publish(tracer.metrics)

    # ------------------------------------------------------------------
    # The loader contract (repro.pipeline.loader)

    @contextmanager
    def _measurement(self):
        self.cache.stats.reset()
        tracer = self.tracer
        # Discard warmup spans/metrics so trace totals match the measured
        # report exactly; the modeled clock keeps running.
        tracer.reset()
        plane_baseline = self.stack.plane_totals()
        yield
        if tracer.enabled:
            # Only the measured run's delta, so the fault and integrity
            # counters in the registry agree with the report.
            self.stack.publish_since(plane_baseline, tracer.metrics)
        # Timing-only runs never fetch features, so drain the queue of
        # undetected-corruption markers instead of letting it grow.
        self._pending_corrupt.clear()

    def next_training_group(
        self, remaining: int
    ) -> list[tuple[MiniBatch, IterationMetrics]]:
        """Produce the next merged group of training iterations.

        Samples ahead, pops the accumulator-merged group, serves its feature
        requests and returns ``(mini-batch, metrics)`` pairs in iteration
        order.  ``remaining`` caps the group size so a run of ``N``
        iterations never aggregates work past its end — callers that step
        iteration-by-iteration (the training pipeline, checkpointing) get
        the exact grouping a single :meth:`run`/:meth:`iter_batches` call
        would produce.
        """
        if remaining <= 0:
            raise ConfigError("remaining must be positive")
        group = self._next_group(remaining=remaining)
        tracer = self.tracer
        if tracer.want_request_detail:
            # One causal chain per merged group, rooted at the first
            # iteration it serves: every span/instant the aggregation emits
            # (stages, HA redirects, fault retries) joins the same trace.
            ctx = TraceContext(
                step_trace_id("group", tracer.iteration), origin="run"
            )
            with tracer.context(ctx):
                metrics = self._aggregate_group(group)
        else:
            metrics = self._aggregate_group(group)
        if tracer.enabled:
            tracer.poll(self._sim_now_s)
        return [(entry.batch, m) for entry, m in zip(group, metrics)]

    def fetch_features(self, batch: MiniBatch) -> np.ndarray:
        """Materialize the feature matrix the modeled fetch delivered.

        Healthy runs return the ground-truth rows from the feature store.
        When corruption is being injected, rows whose page was served
        corrupt from storage *and slipped past verification* are returned
        perturbed (sign and a high mantissa bit of every float flipped) —
        exactly the silent damage ``verify_reads="off"`` leaves in, and
        what ``"full"`` provably removes.  Batches must be fetched in the
        order :meth:`next_training_group` produced them.
        """
        feats = self.store.fetch(batch.input_nodes)
        if not self._pending_corrupt:  # always, without a verifier
            return feats
        bad_pages = self._pending_corrupt.pop(0)
        if len(bad_pages) == 0:
            return feats
        node_pages = self.layout.pages_for_nodes(batch.input_nodes)
        bad = np.isin(node_pages, bad_pages)
        if self.cpu_buffer is not None:
            # Hot nodes were served from the pinned CPU mirror, which the
            # storm cannot touch, even when they share a page id.
            bad &= ~self.cpu_buffer.contains(batch.input_nodes)
        if bad.any():
            raw = feats[bad]
            bits = raw.view(np.uint32) ^ np.uint32(0x8040_0000)
            feats[bad] = bits.view(raw.dtype)
        return feats

    # ------------------------------------------------------------------
    # Checkpointing

    #: Every piece of mutable loader state: the shared sampling RNG (which
    #: also drives the sampler and the seed-stream shuffles), the seed
    #: stream's epoch position, the GPU cache (contents, pinning counters,
    #: its private eviction RNG and stats), the queued window entries, the
    #: accumulator's smoothed redirect fraction, the simulated clock and —
    #: when the planes are on — the injector's stream position, the
    #: degradable array's clock, the ledger/verifier/scrubber and the HA
    #: machine.  Restoring all of it into a freshly constructed loader with
    #: identical arguments makes the continuation bit-identical to a run
    #: that never stopped; a loader of another kind, batch size, cache
    #: geometry, window depth or plane set is refused.
    STATE = (
        guard("loader_name", "name"),
        guard("batch_size"),
        rng_state(),
        child("seed_stream", "_seed_stream"),
        child("cache"),
        child("window"),
        child("accumulator", optional=True),
        child("cpu_buffer", optional=True),
        scalar("sim_now_s", float, attr="_sim_now_s"),
        group(
            "faults",
            (child("injector", "faults"), child("array", "fault_array")),
            when="faults",
        ),
        group(
            "integrity",
            (
                child("ledger"),
                child("verifier"),
                child("scrubber", optional=True),
                seq(  # refilled in place: the stack's queue, by alias
                    "pending_corrupt",
                    lambda pages: np.asarray(pages, dtype=np.int64),
                    attr="_pending_corrupt",
                    into=None,
                    save=each(np.ndarray.tolist),
                ),
            ),
            when="verifier",
        ),
        child("storage_ha", optional=True),
        # Tracer state is deliberately lenient: a checkpoint written
        # without tracing loads into a traced loader (the trace simply
        # starts at the resume point) and vice versa.  When both sides
        # carry state, the recorded spans resume seamlessly — events the
        # crashed run emitted *after* the snapshot are discarded with the
        # rest of its lost progress.
        child("tracer", "tracer.recording", lenient=True),
    )

    def state_dict(self) -> dict:
        """Snapshot the loader through :attr:`STATE`.

        Defined here, not inherited: ``benchmarks/e2e/tracing.py`` shims it
        and accepts only a function found in this class's own namespace.
        """
        return save(self)

    def reset_caches(self) -> None:
        """Drop all cache and window state (fresh-run isolation)."""
        self._pending_corrupt.clear()
        self.window.drain()
        self.cache = GPUSoftwareCache(
            self.cache.capacity_lines,
            policy=self.cache.policy,
            seed=self._cache_rng,
        )
        self.cache.tracer = self.tracer
        self.window = WindowBuffer(
            self.cache, self.config.window_depth, tracer=self.tracer
        )
