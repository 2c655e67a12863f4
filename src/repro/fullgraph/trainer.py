"""Full-graph training as sequential partition sweeps with offload.

The workload the source paper never covers: instead of sampling
mini-batches and issuing random 4K reads, :class:`FullGraphTrainer` runs
*epochs* — exact full-graph forward/backward passes executed as
layer-synchronous sweeps over the partitions of a
:class:`~repro.graph.partition.PartitionResult` (GriNNder's direction).
Per partition step the trainer

* streams the partition's input block (features at layer 0, spilled
  activations above) off storage at **sequential** bandwidth,
* fetches the halo (boundary in-neighbor) rows — the forward half of the
  halo exchange; at layer 0 these are scattered feature pages priced on
  the random-read path,
* computes the block with the shared GraphSAGE layer kernels
  (:meth:`~repro.training.graphsage.GraphSAGE.layer_forward_block` /
  ``layer_backward_block``; layer 0's aggregate is computed once per
  partition and kept, since its features never change), and
* spills the output block when the memory plan says activations do not
  fit HBM — reloaded in reverse order by the backward sweep.

One optimizer step (`apply_gradients`) happens per epoch, on gradients
summed over all partitions — numerically the exact full-graph gradient.
Every piece of mutable state implements the ``state_dict`` protocol, so a
run killed at *any* partition boundary resumes bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .. import state
from ..config import SystemConfig
from ..core import readpath
from ..errors import ConfigError, FullGraphError
from ..graph.partition import partition_graph
from ..pipeline.metrics import (
    IterationMetrics,
    RunReport,
    StageTimes,
)
from ..sim.counters import TransferCounters
from ..state import Stateful, array, child, guard, scalar, seq
from ..telemetry.context import TraceContext, step_trace_id
from ..telemetry.tracks import FULLGRAPH_TRACK
from ..training.graphsage import (
    AGGREGATORS,
    GraphSAGE,
    label_projection,
    project_labels,
    softmax_cross_entropy,
)
from .activations import ActivationStore
from .planner import (
    ACTIVATION_BYTES,
    FEATURE_BYTES,
    MemoryPlanner,
    _CANDIDATE_PARTS,
)
from .scheduler import PartitionSweepScheduler

#: Loader name the run report carries.
FULLGRAPH_LOADER_NAME = "GIDS-fullgraph"


#: Accuracy is evaluated on the first ``EVAL_NODES`` train ids — the same
#: in-sample synthetic-task convention the mini-batch time-to-accuracy
#: benchmark uses, so the two arms are comparable.
EVAL_NODES = 200


@dataclass(frozen=True)
class FullGraphConfig:
    """Knobs of a full-graph sweep run."""

    hidden_dim: int = 32
    num_classes: int = 8
    num_layers: int = 2
    aggregator: str = "mean"
    lr: float = 0.05
    momentum: float = 0.9
    #: Modeled HBM available to the sweep; ``None`` derives it from the
    #: system GPU (callers usually pass a capacity-scaled budget).
    hbm_budget_bytes: float | None = None
    #: Force a partition count instead of letting the planner choose.
    num_partitions: int | None = None
    #: Planner's halo-size estimate (checked against the real partition).
    halo_fraction: float = 0.5
    #: Reload/compute overlap (BGL-style prefetching): end-to-end time is
    #: ``max(prep, compute)`` instead of their sum.
    io_overlap: bool = True
    model_seed: int = 4
    partition_seed: int = 0
    label_seed: int = 1
    refine_passes: int = 2

    def __post_init__(self) -> None:
        if min(self.hidden_dim, self.num_classes, self.num_layers) <= 0:
            raise ConfigError("model dimensions must be positive")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"unknown aggregator {self.aggregator!r}")
        if self.hbm_budget_bytes is not None and self.hbm_budget_bytes <= 0:
            raise ConfigError("HBM budget must be positive")
        if self.num_partitions is not None and self.num_partitions <= 0:
            raise ConfigError("num_partitions must be positive")
        if self.refine_passes < 0:
            raise ConfigError("refine passes must be non-negative")


@dataclass
class _Traffic(Stateful):
    """Byte/second accumulators per traffic class (see docs/FULLGRAPH.md)."""

    feat_seq_bytes: int = 0
    feat_seq_s: float = 0.0
    feat_halo_bytes: int = 0
    feat_halo_s: float = 0.0
    act_reload_bytes: int = 0
    act_reload_s: float = 0.0
    act_halo_bytes: int = 0
    act_halo_s: float = 0.0
    act_spill_bytes: int = 0
    act_spill_s: float = 0.0
    compute_s: float = 0.0


# Plain counters: each field restores through the type of its default.
_Traffic.STATE = tuple(
    scalar(f.name, type(f.default)) for f in fields(_Traffic)
)


def _copied_grads(grads):
    """The per-layer gradient sums of an open epoch, copied so snapshot
    and trainer never share a buffer."""
    return [
        {k: np.asarray(v, dtype=np.float64).copy() for k, v in g.items()}
        for g in grads
    ]


class FullGraphTrainer(Stateful):
    """Runs full-graph epochs as partition sweeps under a memory plan.

    The storage side is one :class:`~repro.core.readpath.StorageStack`,
    built from the same plane keywords GIDS, BaM, the server and the fleet
    take (see there): spill pages go through the *same* failure/retry/
    spike process as feature pages, reloaded spill pages are verified on
    read exactly like them (quarantined pages are recomputed, counted as
    fallbacks), and the placement prices spill writes and lost reads.

    Args:
        dataset: scaled graph replica (structure + feature geometry).
        system: modeled hardware; storage prices the sweeps.
        config: sweep/model knobs.
        fault_plan / verify_reads / replication / parity / rebuild_iops:
            the stack's plane keywords.  The sweep has no idle device
            time, so a rebuild budget only brings the placement up; it
            holds no second copy.
        tracer: optional telemetry tracer (``sweep``/``halo``/``spill``/
            ``reload`` spans land on the stage lanes and a ``fullgraph``
            track).
    """

    def __init__(
        self,
        dataset,
        system: SystemConfig,
        config: FullGraphConfig | None = None,
        *,
        fault_plan=None,
        verify_reads: str = "off",
        replication: int = 1,
        parity: bool = False,
        rebuild_iops: float = 0.0,
        tracer=None,
    ) -> None:
        self.dataset = dataset
        self.system = system
        self.config = config or FullGraphConfig()
        cfg = self.config

        n = dataset.num_nodes
        if cfg.num_layers > n:
            raise FullGraphError("more layers than nodes")
        self.stack = stack = readpath.StorageStack(
            dataset,
            system,
            fault_plan=fault_plan,
            verify_reads=verify_reads,
            replication=replication,
            parity=parity,
            rebuild_iops=rebuild_iops,
            tracer=tracer,
            page_bytes=system.ssd.page_bytes,
        )
        self.tracer = stack.tracer
        self.crash_events = fault_plan.crash_events if fault_plan else ()
        self.store, self.gpu = stack.store, stack.gpu
        # The sweep streams at the healthy array's rates: it does not
        # follow device events.
        self.ssd = stack.ssd
        self.faults, self.verifier = stack.faults, stack.verifier
        # What a storage transfer pays beyond its streaming time, for the
        # planes the stack built, in its draw order: the fault process,
        # then (reads only) verify-on-read.
        extras = {"faults": self._fault_extra, "integrity": self._verify_extra}
        self._read_extras = tuple(extras[plane] for plane in stack.planes)
        self._write_extras = tuple(
            extras[plane] for plane in stack.planes if plane == "faults"
        )

        # The sweep is sequential, so redundancy is placement only: it
        # prices a spilled byte and decides how a read the retry policy
        # gave up on is made good.  A rebuild budget alone places one copy.
        ha = stack.storage_ha
        self.placement = ha and ha.placement
        self._spill_write_factor = (
            self.placement.storage_overhead_factor if self.placement else 1.0
        )
        self._serve_lost = (
            self._reread_from_copy
            if self._spill_write_factor > 1
            else self._recompute
        )

        self.hbm_budget_bytes = (
            float(cfg.hbm_budget_bytes)
            if cfg.hbm_budget_bytes is not None
            else float(system.gpu.memory_bytes)
        )
        self._dims = (
            [dataset.feature_dim]
            + [cfg.hidden_dim] * (cfg.num_layers - 1)
            + [cfg.num_classes]
        )
        self.planner = MemoryPlanner(
            n,
            self._dims,
            self.hbm_budget_bytes,
            halo_fraction=cfg.halo_fraction,
        )
        self.plan, self.partition = self._plan_and_partition()
        self.scheduler = PartitionSweepScheduler(
            dataset.graph, self.partition, cfg.num_layers
        )
        counts = self.scheduler.visitation_counts()
        if not np.all(counts == 1):
            raise FullGraphError(
                "partition sweep would not touch every node exactly once"
            )
        # Layer 0 aggregates features that never change over blocks that
        # never change: one (agg, cache) slot per partition, filled on the
        # first visit and handed to every later one.  The aggregates are
        # row blocks of one num_nodes x d_in array, which holds no heap
        # and no page until a block is filled.  A host cache only: every
        # visit still pays its reads, and no snapshot holds it.
        num_parts = self.partition.num_parts
        sizes = [len(self.scheduler.members(p)) for p in range(num_parts)]
        self._layer0_rows = np.split(
            np.empty((n, dataset.feature_dim)), np.cumsum(sizes)[:-1]
        )
        self._layer0: list[tuple | None] = [None] * num_parts
        # A sweep repeats its steps every epoch, and on a healthy run their
        # records too: the last record of each step, shared by equal ones.
        self._step_records: list = [None] * self.scheduler.steps_per_epoch
        self.page_bytes = system.ssd.page_bytes
        self.activations = ActivationStore(
            n,
            resident=self.plan.activations_resident,
            page_bytes=self.page_bytes,
        )

        self.model = GraphSAGE(
            dataset.feature_dim,
            cfg.hidden_dim,
            cfg.num_classes,
            num_layers=cfg.num_layers,
            aggregator=cfg.aggregator,
            lr=cfg.lr,
            momentum=cfg.momentum,
            seed=cfg.model_seed,
        )

        # The whole float32 feature matrix: the sweep math reads global
        # rows; the storage *time* is charged separately per block.
        self._features = self.store.fetch(np.arange(n, dtype=np.int64))
        self._labels = project_labels(
            self._features,
            label_projection(
                dataset.feature_dim, cfg.num_classes, seed=cfg.label_seed
            ),
        )
        ids = np.asarray(dataset.train_ids, dtype=np.int64)
        if not len(ids):
            raise FullGraphError("dataset has no train ids")
        self.train_seeds = np.sort(ids)
        self.eval_ids = ids[:EVAL_NODES]

        self.report = RunReport(
            loader_name=FULLGRAPH_LOADER_NAME, overlapped=cfg.io_overlap
        )
        self.traffic = _Traffic()
        self.clock_s = 0.0
        self.epochs_completed = 0
        self.step_index = 0  # within-epoch cursor
        self.losses: list[float] = []
        self.accuracies: list[float] = []
        self.epoch_end_times_s: list[float] = []
        self._spill_page_cursor = 0
        # Transient sweep state (alive only mid-epoch).
        self._grads: list[dict] | None = None
        self._d_cur: np.ndarray | None = None
        self._d_prev: np.ndarray | None = None
        self._pending_loss: float | None = None
        self._pending_accuracy: float | None = None

    # ------------------------------------------------------------------
    # Planning

    def _plan_and_partition(self):
        """Plan, partition, then re-plan while the real halo breaks the fit.

        The planner's halo estimate is a guess; the measured partition may
        have a fatter boundary.  While the measured per-step working set
        exceeds the budget (and the count was not forced) the next larger
        candidate count is partitioned and measured.  The returned plan
        always names the returned partition's count; when no candidate
        fits, the budget is too small for this graph.
        """
        cfg = self.config
        plan = self.planner.plan(num_partitions=cfg.num_partitions)
        larger = [
            c for c in _CANDIDATE_PARTS
            if plan.num_partitions < c <= self.dataset.num_nodes
        ]
        while True:
            partition = partition_graph(
                self.dataset.graph,
                plan.num_partitions,
                refine_passes=cfg.refine_passes,
                seed=cfg.partition_seed,
            )
            if plan.forced:
                return plan, partition
            workspace = self._measured_workspace(partition)
            if workspace <= self.hbm_budget_bytes:
                return plan, partition
            if not larger:
                raise FullGraphError(
                    f"no partition count up to {plan.num_partitions} fits "
                    f"one sweep step into {self.hbm_budget_bytes / 2**20:.3g}"
                    f" MiB of HBM with its measured halo (at "
                    f"{plan.num_partitions} parts it needs "
                    f"{workspace / 2**20:.3g} MiB); raise the budget "
                    "(--hbm-mb)"
                )
            plan = self.planner.plan(num_partitions=larger.pop(0))
            plan = type(plan)(**{**plan.to_dict(), "forced": False})

    def _measured_workspace(self, partition) -> int:
        """One sweep step's bytes at the partition's worst real halo."""
        worst = max(
            (
                s["halo_nodes"] / s["nodes"]
                for s in partition.edge_cut_stats(self.dataset.graph)
                if s["nodes"]
            ),
            default=0.0,
        )
        return self.planner.workspace_bytes(
            partition.num_parts, halo_fraction=worst
        )

    # ------------------------------------------------------------------
    # Storage charging helpers

    def _fault_extra(self, n_pages: int, counters: TransferCounters) -> float:
        """Failure/retry/spike cost of one storage batch.

        The draw and its counting are the shared read path's; what the
        sweep owns is how an exhausted read is made good and how the
        process is priced against sequential I/O.
        """
        fault, n_spiked = readpath.draw_faults(
            self.faults, n_pages, [counters]
        )
        extra = self._serve_lost(fault.unrecovered, counters)
        return (
            fault.backoff_s
            + (n_spiked + extra) * self.system.ssd.read_latency_s
        )

    def _reread_from_copy(self, n_lost: int, counters) -> int:
        """The placement holds a second copy (or a parity group) of every
        page: unserved pages are re-read from the surviving copy instead
        of being recomputed; returns the extra device reads."""
        extra = n_lost * self.placement.reconstruct_reads_per_page
        if self.placement.mode == "parity":
            counters.parity_reconstructs += n_lost
        else:
            counters.replica_redirects += n_lost
        counters.reconstruct_reads += extra
        counters.storage_bytes += extra * self.page_bytes
        return extra

    def _recompute(self, n_lost: int, counters) -> int:
        """Unserved spill pages are *recomputable*: the lost block is
        regenerated from the layer below, accounted as fallback."""
        counters.fallback_requests += n_lost
        counters.fallback_bytes += n_lost * self.page_bytes
        return 0

    def _verify_extra(self, n_pages: int, counters: TransferCounters) -> float:
        """Verify-on-read over reloaded spill pages (like feature pages);
        condemned pages are recomputed from the layer below."""
        pages = (
            np.arange(n_pages, dtype=np.int64) + self._spill_page_cursor
        )
        self._spill_page_cursor += n_pages
        outcome = readpath.verify(self.stack, pages, counters, self.clock_s)
        return outcome.rereads * self.system.ssd.read_latency_s

    def _seq_read(self, n_bytes: int, counters: TransferCounters) -> float:
        """Sequential storage read: Eq. 2-3 phases at streaming bandwidth,
        floored by PCIe ingress, plus fault/integrity costs."""
        if n_bytes == 0:
            return 0.0
        pages = self.activations.pages_for(n_bytes)
        counters.storage_requests += pages
        counters.storage_bytes += n_bytes
        t = max(
            self.ssd.sequential_read_time(n_bytes),
            n_bytes / self.system.pcie.bandwidth_bytes,
        )
        for extra in self._read_extras:
            t += extra(pages, counters)
        return t

    def _seq_write(self, n_bytes: int, counters: TransferCounters) -> float:
        """Sequential spill write (posted; no verify on the write side).

        Every logical byte lands as the placement's
        ``storage_overhead_factor`` physical bytes (the extra replica or
        the amortized parity page), charged at the same streaming rate.
        """
        if n_bytes == 0:
            return 0.0
        physical = int(round(n_bytes * self._spill_write_factor))
        pages = self.activations.pages_for(n_bytes)
        counters.storage_requests += pages
        counters.storage_bytes += physical
        t = max(
            self.ssd.sequential_write_time(physical),
            n_bytes / self.system.pcie.bandwidth_bytes,
        )
        for extra in self._write_extras:
            t += extra(pages, counters)
        return t

    def _random_read(self, n_bytes: int, counters: TransferCounters) -> float:
        """Scattered page reads (layer-0 halo features): random-IOPS path."""
        if n_bytes == 0:
            return 0.0
        pages = self.activations.pages_for(n_bytes)
        counters.storage_requests += pages
        counters.storage_bytes += n_bytes
        t = self.ssd.batch_service_time(pages)
        for extra in self._read_extras:
            t += extra(pages, counters)
        return t

    def _hbm(self, n_bytes: int) -> float:
        return self.gpu.hbm_read_time(n_bytes)

    # ------------------------------------------------------------------
    # Sweep execution

    @property
    def steps_per_epoch(self) -> int:
        return self.scheduler.steps_per_epoch

    @property
    def completed_steps(self) -> int:
        return self.epochs_completed * self.steps_per_epoch + self.step_index

    def run_steps(self, max_steps: int) -> int:
        """Advance up to ``max_steps`` partition steps; returns steps run."""
        if max_steps < 0:
            raise FullGraphError("max_steps must be non-negative")
        self.run_until(self.completed_steps + max_steps)
        return max_steps

    def run_until(self, step: int, *, on_step=None) -> None:
        """Sweep until ``completed_steps == step``, calling ``on_step(self)``
        after each partition step; a true return ends the run there."""
        while self.completed_steps < step:
            self._step()
            if on_step is not None and on_step(self):
                return

    def reached_accuracy(self, target: float | None) -> bool:
        """The ``--target-acc`` stop rule: the last finished epoch's eval
        accuracy reached ``target``."""
        return (
            target is not None
            and bool(self.accuracies)
            and self.accuracies[-1] >= target
        )

    def run_to_accuracy(
        self, target: float, *, max_epochs: int = 50
    ) -> "FullGraphTrainer":
        """Sweep epochs until eval accuracy reaches ``target``; returns
        the trainer."""
        if not 0.0 < target <= 1.0:
            raise FullGraphError("target accuracy must be in (0, 1]")
        if max_epochs <= 0:
            raise FullGraphError("max_epochs must be positive")
        # Only epoch boundaries change accuracy, so the rule ends a run at
        # the end of the first epoch that reaches the target.
        if not self.reached_accuracy(target):
            self.run_until(
                max_epochs * self.steps_per_epoch,
                on_step=lambda trainer: trainer.reached_accuracy(target),
            )
        return self

    def _step(self) -> None:
        """Execute one partition step and advance the cursor."""
        step = self.scheduler.step(self.step_index)
        if step.phase == "forward":
            self._forward_step(step)
        else:
            self._backward_step(step)
        self.step_index += 1
        if self.step_index == self.steps_per_epoch:
            self._finish_epoch()

    def _load_inputs(self, li, rows, halo, counters):
        """Stream one block's inputs and halo rows in — features at layer
        0, the layer below's activations above it — and account the
        traffic; returns ``(h_prev, input_s, halo_s)``."""
        d_in = self._dims[li]
        if li == 0:
            part_bytes = len(rows) * d_in * FEATURE_BYTES
            halo_bytes = len(halo) * d_in * FEATURE_BYTES
            input_s = self._seq_read(part_bytes, counters)
            halo_s = self._random_read(halo_bytes, counters)
            self.traffic.feat_seq_bytes += part_bytes
            self.traffic.feat_seq_s += input_s
            self.traffic.feat_halo_bytes += halo_bytes
            self.traffic.feat_halo_s += halo_s
            return self._features, input_s, halo_s
        _, row_bytes = self.activations.read_rows(li - 1, rows)
        _, halo_bytes = self.activations.read_rows(li - 1, halo)
        if row_bytes:
            input_s = self._seq_read(row_bytes, counters)
            halo_s = self._seq_read(halo_bytes, counters)
        else:  # resident: HBM reads
            input_s = self._hbm(len(rows) * d_in * ACTIVATION_BYTES)
            halo_s = self._hbm(len(halo) * d_in * ACTIVATION_BYTES)
        self.traffic.act_reload_bytes += row_bytes
        self.traffic.act_reload_s += input_s
        self.traffic.act_halo_bytes += halo_bytes
        self.traffic.act_halo_s += halo_s
        return self.activations.array(li - 1), input_s, halo_s

    def _kept_aggregate(self, li, p, h_prev):
        """Partition ``p``'s layer-0 ``(agg, cache)``, computed on its first
        visit and kept read-only; ``None`` above layer 0, whose inputs
        change with the weights."""
        if li:
            return None
        kept = self._layer0[p]
        if kept is None:
            agg, cache = self.model.block_aggregate(
                h_prev, self.scheduler.members(p), self.scheduler.block_plan(p)
            )
            rows = self._layer0_rows[p]
            rows[...] = agg
            kept = self._layer0[p] = (rows, cache)
            for array in kept:
                array.setflags(write=False)
        return kept

    def _forward_step(self, step) -> None:
        li, p = step.layer, step.part
        sched = self.scheduler
        rows = sched.members(p)
        halo = sched.halo(p)
        src, dst = sched.block_edges(p)
        counters = TransferCounters()
        d_out = self._dims[li + 1]
        h_prev, load_s, halo_s = self._load_inputs(li, rows, halo, counters)

        if not self.activations.has(li):
            self.activations.allocate(li, d_out)
        out = self.model.layer_forward_block(
            li, h_prev, rows, src, dst, sched.block_plan(p),
            aggregate=self._kept_aggregate(li, p, h_prev),
        )
        spilled = self.activations.write_rows(li, rows, out)
        if spilled:
            spill_s = self._seq_write(spilled, counters)
        else:
            spill_s = self._hbm(len(rows) * d_out * ACTIVATION_BYTES)
        self.traffic.act_spill_bytes += spilled
        self.traffic.act_spill_s += spill_s

        compute_s = self.gpu.training_time(len(rows) + len(src))
        self.traffic.compute_s += compute_s
        times = StageTimes(
            sampling=0.0,
            aggregation=load_s + spill_s,
            transfer=halo_s,
            training=compute_s,
        )
        self._record_step(step, times, rows, halo, src, counters)

    def _backward_step(self, step) -> None:
        li, p = step.layer, step.part
        sched = self.scheduler
        rows = sched.members(p)
        halo = sched.halo(p)
        src, dst = sched.block_edges(p)
        counters = TransferCounters()
        d_in, d_out = self._dims[li], self._dims[li + 1]
        n = self.dataset.num_nodes
        last = self.config.num_layers - 1

        if self._d_cur is None:
            # First backward step of the epoch: loss + logit gradients.
            logits = self.activations.array(last)
            loss, dlogits = softmax_cross_entropy(
                logits[self.train_seeds], self._labels[self.train_seeds]
            )
            self._pending_loss = loss
            pred = np.argmax(logits[self.eval_ids], axis=1)
            self._pending_accuracy = float(
                np.mean(pred == self._labels[self.eval_ids])
            )
            self._d_cur = np.zeros((n, self._dims[-1]))
            self._d_cur[self.train_seeds] = dlogits
            self._grads = self.model.zero_gradients()

        if li == 0:
            # No input gradient at layer 0: it would be with respect to
            # the features, and nothing reads one.  Assigned, not assumed:
            # an older snapshot restores a buffer here.
            self._d_prev = None
        elif self._d_prev is None:
            self._d_prev = np.zeros((n, d_in))

        # Reload this block's inputs (and halo) for recomputed aggregation
        # (modeled at every layer; the host reuses layer 0's aggregate).
        h_prev, reload_s, halo_s = self._load_inputs(li, rows, halo, counters)

        # Reload the block's own output for the ReLU mask (linear last
        # layer needs none).
        h_out_rows = None
        mask_s = 0.0
        if li != last:
            h_out_rows, mask_bytes = self.activations.read_rows(li, rows)
            if mask_bytes:
                mask_s = self._seq_read(mask_bytes, counters)
            else:
                mask_s = self._hbm(
                    len(rows) * d_out * ACTIVATION_BYTES
                )
            self.traffic.act_reload_bytes += mask_bytes
            self.traffic.act_reload_s += mask_s

        # Offloaded gradient buffers: read this block's d_out rows, write
        # back the d_in contributions (partition + halo rows).
        grad_read = self.activations.charge_scratch(
            len(rows) * d_out * ACTIVATION_BYTES, read=True
        )
        grad_write = self.activations.charge_scratch(
            (len(rows) + len(halo)) * d_in * ACTIVATION_BYTES, read=False
        )
        grad_s = self._seq_read(grad_read, counters) + self._seq_write(
            grad_write, counters
        )
        self.traffic.act_reload_bytes += grad_read
        self.traffic.act_spill_bytes += grad_write
        self.traffic.act_spill_s += grad_s

        self.model.layer_backward_block(
            li,
            h_prev,
            h_out_rows,
            rows,
            src,
            dst,
            self._d_cur[rows],
            self._d_prev,
            self._grads[li],
            sched.block_plan(p),
            aggregate=self._kept_aggregate(li, p, h_prev),
        )

        compute_s = 2.0 * self.gpu.training_time(len(rows) + len(src))
        self.traffic.compute_s += compute_s
        times = StageTimes(
            sampling=0.0,
            aggregation=reload_s + mask_s + grad_s,
            transfer=halo_s,
            training=compute_s,
        )
        self._record_step(step, times, rows, halo, src, counters)

        if p == 0:
            # Layer finished: rotate gradient buffers, free consumed
            # activations (layer ``li`` is never read again this epoch).
            self._d_cur = self._d_prev
            self._d_prev = None
            if li != last:
                self.activations.drop(li)

    def _finish_epoch(self) -> None:
        self.model.apply_gradients(self._grads)
        self.losses.append(float(self._pending_loss))
        self.accuracies.append(float(self._pending_accuracy))
        self.epoch_end_times_s.append(self.report.e2e_time)
        self.activations.drop(self.config.num_layers - 1)
        self._grads = None
        self._d_cur = None
        self._d_prev = None
        self._pending_loss = None
        self._pending_accuracy = None
        self.step_index = 0
        self.epochs_completed += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "epoch_complete",
                FULLGRAPH_TRACK,
                epoch=self.epochs_completed,
                loss=self.losses[-1],
                accuracy=self.accuracies[-1],
            )

    def _record_step(
        self, step, times, rows, halo, src, counters
    ) -> None:
        metrics = IterationMetrics(
            times=times,
            num_seeds=len(rows),
            num_input_nodes=len(rows) + len(halo),
            num_sampled=len(rows),
            num_edges=len(src),
            counters=counters,
        )
        # Every stage time is a sum of non-negative durations, so equal
        # records are equal bit for bit (no -0.0 meets a 0.0).
        if metrics == self._step_records[step.index]:
            metrics = self._step_records[step.index]
        else:
            self._step_records[step.index] = metrics
        self.report.append(metrics)
        self.clock_s += times.total
        tracer = self.tracer
        if tracer.enabled:
            ctx = None
            if tracer.want_request_detail:
                # One causal chain per sweep step ties the sweep span to
                # its reload/halo/compute children.
                ctx = tracer.context(
                    TraceContext(
                        step_trace_id("sweep", tracer.iteration),
                        origin="fullgraph",
                    )
                )
                ctx.__enter__()
            t0 = tracer.clock_s
            tracer.record(
                "sweep",
                FULLGRAPH_TRACK,
                start_s=t0,
                duration_s=times.total,
                epoch=self.epochs_completed,
                phase=step.phase,
                layer=step.layer,
                part=step.part,
            )
            cursor = t0
            io_name = "load" if step.layer == 0 else (
                "reload" if step.phase == "backward" else "spill"
            )
            if times.aggregation > 0.0:
                tracer.record(
                    io_name,
                    "stage.aggregation",
                    start_s=cursor,
                    duration_s=times.aggregation,
                    iteration=tracer.iteration,
                )
                cursor += times.aggregation
            if times.transfer > 0.0:
                tracer.record(
                    "halo",
                    "stage.transfer",
                    start_s=cursor,
                    duration_s=times.transfer,
                    iteration=tracer.iteration,
                )
                cursor += times.transfer
            tracer.record(
                "sweep",
                "stage.training",
                start_s=cursor,
                duration_s=times.training,
                iteration=tracer.iteration,
            )
            tracer.iteration += 1
            counters.publish(tracer.metrics)
            tracer.advance(times.total)
            if ctx is not None:
                ctx.__exit__(None, None, None)
            tracer.poll(self.clock_s)

    # ------------------------------------------------------------------
    # Export

    def fullgraph_block(
        self, *, target_accuracy: float | None = None
    ) -> dict:
        """The schema-v9 ``fullgraph`` export block; ``time_to_target_s``
        is the end of the first epoch that reached ``target_accuracy``."""
        time_to_target_s = None
        if target_accuracy is not None:
            for end_s, acc in zip(self.epoch_end_times_s, self.accuracies):
                if acc >= target_accuracy:
                    time_to_target_s = end_s
                    break
        t = self.traffic
        stats = self.scheduler.edge_cut_stats()
        return {
            "num_partitions": self.partition.num_parts,
            "num_layers": self.config.num_layers,
            "steps_per_epoch": self.steps_per_epoch,
            "epochs_completed": self.epochs_completed,
            "hbm_budget_bytes": self.hbm_budget_bytes,
            "activations_resident": self.plan.activations_resident,
            "plan": self.plan.to_dict(),
            "partition": {
                "balance": self.partition.balance,
                "edge_cut_total": int(
                    sum(s["cut_in_edges"] for s in stats)
                ),
                "halo_nodes_total": int(
                    sum(s["halo_nodes"] for s in stats)
                ),
                "per_part": stats,
            },
            "traffic": {
                "feature_sequential_bytes": t.feat_seq_bytes,
                "feature_sequential_s": t.feat_seq_s,
                "feature_halo_bytes": t.feat_halo_bytes,
                "feature_halo_s": t.feat_halo_s,
                "activation_reload_bytes": t.act_reload_bytes,
                "activation_reload_s": t.act_reload_s,
                "activation_halo_bytes": t.act_halo_bytes,
                "activation_halo_s": t.act_halo_s,
                "activation_spill_bytes": t.act_spill_bytes,
                "activation_spill_s": t.act_spill_s,
                "compute_s": t.compute_s,
                "spill_pages": self.activations.spill_pages,
                "reload_pages": self.activations.reload_pages,
            },
            "sequential": {
                "read_bandwidth": self.ssd.seq_read_bandwidth,
                "write_bandwidth": self.ssd.seq_write_bandwidth,
            },
            "epoch_losses": list(self.losses),
            "epoch_accuracies": list(self.accuracies),
            "epoch_end_times_s": list(self.epoch_end_times_s),
            "target_accuracy": target_accuracy,
            "time_to_target_s": time_to_target_s,
        }

    # ------------------------------------------------------------------
    # Checkpointing

    def checkpoint(self) -> dict:
        """The checkpoint payload: the :data:`PLAN` guards, the trainer's
        state and, when tracing, the tracer's."""
        payload = {
            "plan": state.save(self, self.PLAN),
            "trainer": self.state_dict(),
        }
        if self.tracer.enabled:
            payload["tracer"] = self.tracer.state_dict()
        return payload

    def restore(self, payload: dict) -> None:
        """Continue from a :meth:`checkpoint` payload."""
        # Snapshots written before the plan guards lack the entry.
        if "plan" in payload:
            state.load(self, payload["plan"], self.PLAN)
        self.load_state_dict(payload["trainer"])
        if self.tracer.enabled and "tracer" in payload:
            self.tracer.load_state_dict(payload["tracer"])

    #: Everything needed for bit-identical resume.  The fault injector, the
    #: verifier and its ledger are left out of the snapshot when the run has
    #: none; present on one side only, they refuse the snapshot.
    STATE = (
        guard("loader", lambda self: FULLGRAPH_LOADER_NAME),
        child("model"),
        child("activations"),
        child("report", cls=RunReport),
        child("traffic"),
        scalar("clock_s", float),
        scalar("epochs_completed", int),
        scalar("step_index", int),
        seq("losses", float),
        seq("accuracies", float),
        seq("epoch_end_times_s", float),
        scalar("spill_page_cursor", int, attr="_spill_page_cursor"),
        scalar(  # None between epochs
            "grads", _copied_grads, attr="_grads", save=_copied_grads,
            optional=True,
        ),
        array("d_cur", np.float64, attr="_d_cur", optional=True),
        array("d_prev", np.float64, attr="_d_prev", optional=True),
        scalar("pending_loss", attr="_pending_loss"),
        scalar("pending_accuracy", attr="_pending_accuracy"),
        child("faults", optional=True, omit=True),
        child("verifier", optional=True, omit=True),
        child(
            "ledger", lambda self: self.verifier and self.verifier.ledger,
            optional=True, omit=True,
        ),
    )

    #: The configuration a checkpoint must share with the live trainer and
    #: that the state cannot show: a step cursor, activations and spill
    #: accounting are only meaningful under the partition, residency and
    #: redundancy they were produced with.  The layout of ``state_dict()``
    #: is frozen (``tests/test_readpath_golden.py`` hashes it), so these
    #: guards are saved *beside* the state, as the ``"plan"`` entry of the
    #: :meth:`checkpoint` payload.
    PLAN = (
        guard("num_partitions", lambda self: self.partition.num_parts),
        guard("dims", "_dims"),
        guard(
            "activations_resident",
            lambda self: self.plan.activations_resident,
        ),
        guard("hbm_budget_bytes"),
        guard("partition_seed", lambda self: self.config.partition_seed),
        guard(
            "placement",
            lambda self: self.placement
            and (self.placement.mode, self.placement.storage_overhead_factor),
        ),
    )
