"""The six workloads: what each builds, how it steps, and what it checks.

Every workload drives the program through a public stepping entry point
and times exactly that call.  An *op* is one training iteration
(``loader-*``), one offered request (``serve-diurnal``), one global step
(``fleet-4gpu``) or one sweep step (``fullgraph-spill``).

A run is ``warmup_ops`` untimed ops, then ``prefix_ops`` timed ops whose
modeled outputs are reported, then more timed ops until the time box ends.
The prefix is a fixed op count, so every modeled number, every count and
the digest repeat exactly for a seed however fast the host is; only host
throughput is measured over the whole time box.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
from time import perf_counter, process_time

import numpy as np

from repro.bench.workloads import get_workload
from repro.checkpoint.store import CheckpointStore
from repro.config import INTEL_OPTANE, SAMSUNG_980PRO, SystemConfig
from repro.core.fleet import ElasticFleetTrainer, FleetConfig
from repro.core.gids import GIDSDataLoader
from repro.faults import FaultPlan
from repro.faults.plan import CorruptionEvent, DeviceEvent
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph import datasets
from repro.serving import ArrivalConfig, InferenceServer
from repro.sim.counters import TransferCounters
from repro.telemetry import Tracer

_UNBOUNDED = 1 << 30
_MAX_MESSAGES = 20


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (the rule ``ServingReport`` uses)."""
    ordered = sorted(values)
    rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def digest(payload) -> str:
    """sha256 over modeled outputs; floats keep every digit via ``repr``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Shared run protocol; subclasses supply ``build`` and ``_call``."""

    name = ""
    why = ""
    #: nominal op counts; ``scale`` (1.0, or 0.05 under ``--smoke``)
    #: multiplies both
    warmup_ops = 0
    prefix_ops = 0
    #: ops in one natural period of the workload (an epoch, a diurnal
    #: swing); host-throughput segments are whole periods
    period_ops = 1

    def __init__(self, seed: int, scale: float, scratch: str) -> None:
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.warmup_ops = max(1, round(type(self).warmup_ops * scale))
        self.prefix_ops = max(1, round(type(self).prefix_ops * scale))
        self.warming = True
        self.ops_done = 0
        self.failed_ops = 0
        self.messages: list[str] = []
        #: modeled seconds of each prefix op, in order
        self.modeled: list[float] = []
        #: per-op rows hashed into the digest
        self.rows: list = []
        self.stage_s = {"sampling": 0.0, "aggregation": 0.0, "training": 0.0}
        self.counters = TransferCounters()

    # -- protocol ------------------------------------------------------

    def build(self) -> None:
        """Dataset generation, ranking, partitioning, construction."""
        raise NotImplementedError

    def warm_up(self) -> None:
        while self.ops_done < self.warmup_ops:
            self.step()
        self.warming = False
        self.ops_done = 0

    def step(self) -> tuple[int, float, float]:
        """One public call: ``(ops completed, wall seconds, CPU seconds)``."""
        cpu = process_time()
        start = perf_counter()
        ops = self._call()
        wall_s = perf_counter() - start
        cpu_s = process_time() - cpu
        self._after_call()
        self.ops_done += ops
        return ops, wall_s, cpu_s

    @property
    def prefix_done(self) -> bool:
        return not self.warming and self.ops_done >= self.prefix_ops

    def prefix_summary(self) -> dict:
        """Modeled outputs of the prefix (called once, at its end)."""
        ops = len(self.modeled)
        return {
            "ops": ops,
            "modeled_s_per_op": sum(self.modeled) / ops,
            "modeled_p99_op_ms": percentile(self.modeled, 99) * 1e3,
            "bad_ops": 0,
            "digest": digest(self.rows),
            "layer": {
                **{
                    f"modeled.{stage}_s_per_op": total / ops
                    for stage, total in self.stage_s.items()
                },
                "faults.fallback_requests": self.counters.fallback_requests,
            },
        }

    def finish(self) -> None:
        """End-of-run checks; failures land in :attr:`messages`."""

    def close(self) -> None:
        """Remove what the workload left on disk."""

    # -- helpers -------------------------------------------------------

    def _call(self) -> int:
        raise NotImplementedError

    def _after_call(self) -> None:
        """Untimed bookkeeping and checks after each public call."""

    def _ops_left(self) -> int:
        """Ops until the next phase boundary (a call never crosses one)."""
        target = self.warmup_ops if self.warming else self.prefix_ops
        left = target - self.ops_done
        return left if left > 0 else _UNBOUNDED

    def fail_op(self, message: str) -> None:
        self.failed_ops += 1
        self.fail_run(message)

    def fail_run(self, message: str) -> None:
        if len(self.messages) < _MAX_MESSAGES:
            self.messages.append(message)

    def _record(self, metrics, modeled_s: float) -> None:
        """Fold one op's ``IterationMetrics`` into the prefix totals."""
        if self.warming or self.prefix_done:
            return
        times = metrics.times
        self.modeled.append(modeled_s)
        self.stage_s["sampling"] += times.sampling
        # "Aggregation" is all feature movement: storage + PCIe/HBM.
        self.stage_s["aggregation"] += times.aggregation + times.transfer
        self.stage_s["training"] += times.training
        self.counters.merge(metrics.counters)
        self.rows.append(
            [modeled_s, times.state_dict(), metrics.counters.state_dict()]
        )


# ----------------------------------------------------------------------
# GIDSDataLoader workloads


class LoaderWorkload(Workload):
    dataset = ""
    dataset_scale: float | None = None
    batch_size: int | None = None
    ssd = INTEL_OPTANE
    num_ssds = 1

    def build(self) -> None:
        # get_workload memoizes per process; a set-up that is to be timed
        # more than once must start cold each time.
        get_workload.cache_clear()
        self.spec = get_workload(
            self.dataset,
            scale=self.dataset_scale,
            batch_size=self.batch_size,
            seed=self.seed,
        )
        self.loader = self._make_loader()
        if self.loader.layout.nodes_per_page != 1:
            raise RuntimeError("conservation check assumes one page per node")
        self._clock_s = self.loader.sim_now_s
        self._unrecovered = 0
        self._group: list = []

    def _loader_kwargs(self) -> dict:
        return {"config": self.spec.loader_config()}

    def _make_loader(self) -> GIDSDataLoader:
        spec = self.spec
        return GIDSDataLoader(
            spec.dataset,
            spec.system(ssd=self.ssd, num_ssds=self.num_ssds),
            batch_size=spec.batch_size,
            fanouts=spec.fanouts,
            hot_nodes=spec.hot_nodes,
            seed=self.seed,
            **self._loader_kwargs(),
        )

    def _call(self) -> int:
        self._group = self.loader.next_training_group(
            min(64, self._ops_left())
        )
        return len(self._group)

    def _after_call(self) -> None:
        # Every input node is one feature request served by exactly one
        # tier (GPU cache, CPU buffer, storage, fallback).  The only
        # requests counted twice are storage reads re-served by the
        # fallback: pages condemned this round and reads that exhausted
        # their retries.
        surplus = 0
        for _, metrics in self._group:
            counters = metrics.counters
            surplus += (
                counters.total_requests
                - counters.corrupt_quarantined
                - metrics.num_input_nodes
            )
            self._record(metrics, metrics.times.total)
        faults = self.loader.faults
        unrecovered = 0 if faults is None else faults.stats.unrecovered
        if surplus != unrecovered - self._unrecovered:
            self.fail_op(
                f"request conservation: {surplus} requests beyond the input "
                f"nodes, {unrecovered - self._unrecovered} re-served reads"
            )
        self._unrecovered = unrecovered
        now_s = self.loader.sim_now_s
        if not now_s > self._clock_s:
            self.fail_op(f"modeled clock went {self._clock_s} -> {now_s}")
        self._clock_s = now_s


class LoaderMiss(LoaderWorkload):
    name = "loader-miss"
    why = (
        "IGB-Full replica, 1x 980 Pro: GPU cache hit ratio ~10%, so the "
        "cache admit/evict path and SSD-bound modeled time dominate"
    )
    dataset = "IGB-Full"
    dataset_scale = 0.0005
    ssd = SAMSUNG_980PRO
    warmup_ops = 200
    prefix_ops = 1200


class LoaderHit(LoaderWorkload):
    name = "loader-hit"
    why = (
        "IGB-tiny, batch 256, 1x Optane, cache larger than the features: "
        "hit path, pinning and sampling dominate; evictions never happen"
    )
    dataset = "IGB-tiny"
    batch_size = 256
    warmup_ops = 40
    prefix_ops = 250


class LoaderPlanes(LoaderWorkload):
    name = "loader-planes"
    why = (
        "IGB-tiny, 4x 980 Pro with faults, replication, verify-on-read, "
        "scrub, request tracing and checkpoints all on: the only workload "
        "where the six planes do work"
    )
    dataset = "IGB-tiny"
    batch_size = 256
    ssd = SAMSUNG_980PRO
    num_ssds = 4
    warmup_ops = 30
    prefix_ops = 200
    checkpoint_every = 50
    #: a throughput segment holds as many checkpoints as any other
    period_ops = checkpoint_every
    #: public calls finish() may spend waiting for the rebuild to end
    settle_calls = 200

    def _loader_kwargs(self) -> dict:
        # Every device event falls early in the prefix (~4 ms of modeled
        # time per op after a ~0.12 s warm-up), so a traced prefix sees all
        # of them and most of the time box is the steady planes-on regime.
        plan = FaultPlan(
            seed=self.seed + 1,
            read_failure_rate=0.01,
            bitflip_rate=1e-4,
            device_events=(
                DeviceEvent(1, "dropout", 0.16),
                DeviceEvent(1, "recovery", 0.26),
                DeviceEvent(2, "slowdown", 0.32, factor=3.0),
                DeviceEvent(2, "recovery", 0.40),
            ),
            corruption_events=(CorruptionEvent(3, 0.20, 0.02),),
        )
        self.tracer = Tracer(detail="request")
        features = self.spec.dataset.feature_data_bytes
        return {
            "config": self.spec.loader_config(gpu_cache_bytes=0.02 * features),
            "fault_plan": plan,
            "replication": 2,
            "rebuild_iops": 1e6,
            "verify_reads": "full",
            "scrub_iops": 1e5,
            "tracer": self.tracer,
        }

    def build(self) -> None:
        super().build()
        self._ckpt_dir = os.path.join(
            self.scratch, f"ckpt-{self.name}-{os.getpid()}"
        )
        shutil.rmtree(self._ckpt_dir, ignore_errors=True)
        self.store = CheckpointStore(self._ckpt_dir)
        self._iterations = 0
        self.checkpoints = 0

    def _call(self) -> int:
        ops = super()._call()
        before = self._iterations
        self._iterations += ops
        every = self.checkpoint_every
        if self._iterations // every > before // every:
            self.store.save(
                self._iterations, {"loader": self.loader.state_dict()}
            )
            if not (self.warming or self.prefix_done):
                self.checkpoints += 1
        return ops

    def prefix_summary(self) -> dict:
        summary = super().prefix_summary()
        registry = self.tracer.metrics
        dropped = "telemetry.dropped_events"
        summary["layer"].update(
            {
                "checkpoint.saves": self.checkpoints,
                "telemetry.dropped_events": (
                    registry.counter(dropped).value
                    if dropped in registry
                    else 0
                ),
            }
        )
        return summary

    def _fully_redundant(self) -> bool:
        return self.loader.storage_ha.summary_block()["fully_redundant"]

    def finish(self) -> None:
        ledger = self.loader.ledger
        if not ledger.is_consistent():
            self.fail_run(
                f"ledger: detected {ledger.total_detected} != repaired "
                f"{ledger.total_repaired} + unrepairable "
                f"{ledger.total_unrepairable}"
            )
        # The time box can end while a device is out or being rebuilt (a
        # slow host, --smoke): let the plan play out, untimed, then judge.
        for _ in range(self.settle_calls):
            if self._fully_redundant():
                break
            self.step()
        if not self._fully_redundant():
            self.fail_run("storage is not fully redundant at the end")

    def close(self) -> None:
        shutil.rmtree(self._ckpt_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# InferenceServer


class ServeDiurnal(Workload):
    name = "serve-diurnal"
    why = (
        "open-loop diurnal arrivals swinging 0.5x-1.5x of ~4100 req/s "
        "modeled capacity on 2x Optane: the same stack per request through "
        "server.py's own read path, under and over capacity in one run"
    )
    warmup_ops = 500
    prefix_ops = 10000
    rate_req_s = 4000
    period_s = 0.1
    period_ops = int(rate_req_s * period_s)

    def build(self) -> None:
        dataset = datasets.load_scaled("IGB-tiny", 1.0, seed=self.seed)
        # Open loop on the modeled clock: the schedule is a pure function
        # of the seed, so the generator is never late.  A 0.1 s period puts
        # 25 full swings inside the prefix, which steadies the tail.
        self.server = InferenceServer(
            dataset,
            SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
            arrival=ArrivalConfig(
                shape="diurnal",
                rate=self.rate_req_s,
                period_s=self.period_s,
                amplitude=0.5,
                deadline_s=0.05,
                seed=self.seed,
            ),
            fanouts=(5, 5),
            seed=self.seed,
        )

    def warm_up(self) -> None:
        super().warm_up()
        self.server.drain()
        self._base = self.server.report()
        self._base_stats = self._base.stats.state_dict()

    def _call(self) -> int:
        self.server.step()
        return 1

    def prefix_summary(self) -> dict:
        # Offer the prefix, then drain, so that every offered request has
        # an outcome and the failed share is exact.
        self.server.drain()
        report = self.server.report()
        base, base_stats = self._base, self._base_stats
        stats = report.stats

        def since_warmup(field: str) -> int:
            return stats.total(field) - sum(base_stats[field])

        first = len(base.latencies)
        latencies = report.latencies[first:]
        offered = since_warmup("offered")
        met = since_warmup("deadline_met")
        completed = since_warmup("completed")
        duration_s = report.duration_s - base.duration_s
        busy_s = report.busy_s - base.busy_s
        stage = {
            key: report.stage_seconds[key] - base.stage_seconds[key]
            for key in report.stage_seconds
        }
        return {
            "ops": offered,
            # the paper-side cost of one good answer
            "modeled_s_per_op": duration_s / met,
            "modeled_p99_op_ms": percentile(latencies, 99) * 1e3,
            "bad_ops": offered - met,
            "digest": digest(
                [latencies, stats.state_dict(), report.counters.state_dict()]
            ),
            "layer": {
                "modeled.sampling_s_per_op": stage["sampling"] / completed,
                "modeled.aggregation_s_per_op": (
                    stage["aggregation"] + stage["transfer"]
                ) / completed,
                "modeled.training_s_per_op": stage["training"] / completed,
                "faults.fallback_requests": report.counters.fallback_requests,
                "serving.shed_fraction": since_warmup("shed") / offered,
                "serving.degraded_fraction": (
                    report.degraded_requests - base.degraded_requests
                ) / completed,
                "serving.modeled_capacity_req_s": completed / busy_s,
            },
        }

    def finish(self) -> None:
        self.server.drain()
        if not self.server.stats.consistent():
            self.fail_run("serving ledger: offered != admitted+shed+rejected")


# ----------------------------------------------------------------------
# ElasticFleetTrainer


class Fleet4Gpu(Workload):
    name = "fleet-4gpu"
    why = (
        "4 data-parallel GPUs on 2x Optane with the peer cache on: real "
        "GraphSAGE gradients and feature fetches dominate host time; "
        "modeled time carries the peer tier and shared-SSD contention"
    )
    warmup_ops = 10
    #: enough steps that the p99 of their modeled times is not their maximum
    prefix_ops = 120
    fanouts = (10, 10)
    batch_size = 4
    #: labeled nodes; with 4 GPUs and batch 4 an epoch is 250 global
    #: steps, a little more than the time box holds on a 2-core box, so
    #: the steady part of one epoch is what gets timed
    train_nodes = 4000

    def build(self) -> None:
        dataset = datasets.load_scaled("IGB-tiny", 0.3, seed=self.seed)
        rng = np.random.default_rng([self.seed, 0xF1EE7])
        train_ids = rng.choice(
            dataset.num_nodes,
            size=max(64, round(self.train_nodes * self.scale)),
            replace=False,
        )
        self.dataset = dataclasses.replace(
            dataset, train_ids=np.sort(train_ids)
        )
        self.epochs_done = 0
        self._new_epoch()

    def _new_epoch(self) -> None:
        self.trainer = ElasticFleetTrainer(
            self.dataset,
            SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
            FleetConfig(num_gpus=4, batch_size=self.batch_size),
            seed=self.seed,
            fanouts=self.fanouts,
        )
        self._clock_s = 0.0
        self._result = None

    def _call(self) -> int:
        self._result = self.trainer.run_epoch(max_steps=1)
        return 1

    def step(self) -> tuple[int, float, float]:
        if self._result is not None and self._result.completed:
            # The next epoch repeats the same schedule on a fresh fleet;
            # building it is set-up work, not an op.
            self._new_epoch()
        return super().step()

    def _after_call(self) -> None:
        result = self._result
        step_s = result.epoch_time_s - self._clock_s
        if not step_s > 0.0:
            self.fail_op(f"modeled clock stalled at {result.epoch_time_s}")
        self._clock_s = result.epoch_time_s
        recording = not (self.warming or self.prefix_done)
        self._record(result.report.iterations[-1], step_s)
        if recording:
            self.rows[-1].append(result.losses[-1])
        if result.completed:
            self._check_epoch(result)

    def _check_epoch(self, result) -> None:
        self.epochs_done += 1
        trained = np.sort(result.trained_seeds())
        if not np.array_equal(trained, self.dataset.train_ids):
            self.fail_run("an epoch did not train every seed exactly once")
        # A step's loss averages only 16 seeds: compare tenths of the
        # epoch, and only when a tenth is enough steps to show a trend
        # (a --smoke epoch is 13 steps in all).
        tenth = len(result.losses) // 10
        if tenth >= 10:
            first = float(np.mean(result.losses[:tenth]))
            last = float(np.mean(result.losses[-tenth:]))
            if not last < first:
                self.fail_run(f"epoch loss went {first} -> {last}")

    def prefix_summary(self) -> dict:
        summary = super().prefix_summary()
        result = self._result
        summary["layer"].update(
            {
                "training.final_loss": result.losses[-1],
                "core.fleet.peer_hit_ratio": result.peer_cache_hit_ratio,
                "core.fleet.ssd_pages": result.total_ssd_pages,
                "core.fleet.steals": len(result.steal_events),
            }
        )
        return summary

    def finish(self) -> None:
        result = self._result
        if self.epochs_done == 0:
            # Exactly-once can only be judged on a whole epoch: run the
            # first one out, untimed.
            self._check_epoch(self.trainer.run_epoch())
        elif not result.completed:
            trained = result.trained_seeds()
            if len(np.unique(trained)) != len(trained):
                self.fail_run("a seed was trained twice in the open epoch")


# ----------------------------------------------------------------------
# FullGraphTrainer


class FullGraphSpill(Workload):
    name = "fullgraph-spill"
    why = (
        "full-graph sweeps over 64 partitions with activations spilled to "
        "1x 980 Pro: block forward/backward dominates host time, modeled "
        "time is sequential-SSD-bound; the only user of sequential I/O"
    )
    warmup_ops = 16
    prefix_ops = 496  # warm-up + prefix = two epochs of 256 sweep steps

    def build(self) -> None:
        dataset = datasets.load_scaled("IGB-tiny", 0.08, seed=self.seed)
        self.system = SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=1)
        self.trainer = FullGraphTrainer(
            dataset,
            self.system,
            FullGraphConfig(hbm_budget_bytes=10e6, partition_seed=self.seed),
        )
        self.period_ops = self.trainer.steps_per_epoch
        self._clock_s = 0.0
        self._traffic_base: dict = {}

    def warm_up(self) -> None:
        super().warm_up()
        self._traffic_base = self.trainer.traffic.state_dict()

    def _call(self) -> int:
        return self.trainer.run_steps(1)

    def _after_call(self) -> None:
        trainer = self.trainer
        step_s = trainer.clock_s - self._clock_s
        if not step_s > 0.0:
            self.fail_op(f"modeled clock stalled at {trainer.clock_s}")
        self._clock_s = trainer.clock_s
        self._record(trainer.report.iterations[-1], step_s)

    def _check_losses(self) -> None:
        losses = self.trainer.losses
        if not all(math.isfinite(loss) for loss in losses):
            self.fail_run(f"non-finite epoch loss in {losses}")
        if len(losses) >= 2 and not losses[-1] < losses[0]:
            self.fail_run(f"epoch losses do not decrease: {losses}")

    def prefix_summary(self) -> dict:
        summary = super().prefix_summary()
        trainer = self.trainer
        summary["digest"] = digest([self.rows, trainer.losses])
        page_bytes = self.system.ssd.page_bytes
        traffic = trainer.traffic.state_dict()
        base = self._traffic_base

        def pages(key: str) -> int:
            return (traffic[key] - base[key]) // page_bytes

        summary["layer"].update(
            {
                "training.final_loss": (
                    trainer.losses[-1] if trainer.losses else 0.0
                ),
                "fullgraph.spill_pages": pages("act_spill_bytes"),
                "fullgraph.reload_pages": pages("act_reload_bytes"),
                "fullgraph.num_partitions": trainer.partition.num_parts,
            }
        )
        self._check_losses()
        return summary

    def finish(self) -> None:
        self._check_losses()


WORKLOADS = {
    cls.name: cls
    for cls in (
        LoaderMiss,
        LoaderHit,
        LoaderPlanes,
        ServeDiurnal,
        Fleet4Gpu,
        FullGraphSpill,
    )
}
