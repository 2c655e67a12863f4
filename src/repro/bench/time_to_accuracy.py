"""Time-to-accuracy: functional training against simulated hardware time.

An extension beyond the paper's figures: since this reproduction runs
*real* training (NumPy GraphSAGE, exact gradients) while modeling *time*
with the device models, it can answer the question the E2E figures imply —
how much sooner does a GIDS-fed model reach a target accuracy than a
baseline-fed one?  Both loaders draw identical batch sequences (shared
seed; see ``tests/test_integration.py``), so the accuracy trajectory *per
step* is identical and the entire difference is the data-path time — the
cleanest possible statement of the paper's claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.mmap_loader import DGLMmapLoader
from ..config import SAMSUNG_980PRO, SSDSpec
from ..core.gids import GIDSDataLoader
from ..training.evaluate import synthetic_task_accuracy
from ..training.graphsage import GraphSAGE, synthetic_labels
from .experiments import ExperimentResult
from .workloads import get_workload


@dataclass
class AccuracyTrace:
    """Accuracy checkpoints against cumulative simulated time."""

    loader: str
    times_s: list[float]
    accuracies: list[float]

    def time_to(self, target: float) -> float | None:
        """First simulated time at which accuracy reached ``target``."""
        for t, acc in zip(self.times_s, self.accuracies):
            if acc >= target:
                return t
        return None


def _run_trace(
    train_loader,
    timing_loader,
    eval_sampler,
    model: GraphSAGE,
    eval_ids: np.ndarray,
    num_classes: int,
    steps: int,
    eval_every: int,
    label_seed: int,
) -> AccuracyTrace:
    """Train through ``train_loader`` and checkpoint accuracy on a schedule.

    Per-step simulated time comes from ``timing_loader`` — a *separate*
    instance with identical configuration — so the timing run does not
    consume the training loader's RNG stream (keeping batch sequences
    identical across compared loaders).  Evaluation likewise uses its own
    dedicated sampler."""
    timing = timing_loader.run(steps, warmup=5)
    per_step = timing.e2e_time / timing.num_iterations

    times: list[float] = []
    accuracies: list[float] = []
    step = 0
    for batch, features in train_loader.iter_batches(steps):
        labels = synthetic_labels(
            train_loader.store, batch.seeds, num_classes, seed=label_seed
        )
        model.train_step(batch, features, labels)
        step += 1
        if step % eval_every == 0 or step == steps:
            result = synthetic_task_accuracy(
                model, eval_sampler, train_loader.store, eval_ids,
                num_classes, label_seed=label_seed,
            )
            times.append(step * per_step)
            accuracies.append(result.accuracy)
    return AccuracyTrace(
        loader=train_loader.name, times_s=times, accuracies=accuracies
    )


def time_to_accuracy(
    ssd: SSDSpec = SAMSUNG_980PRO,
    *,
    steps: int = 50,
    eval_every: int = 10,
    num_classes: int = 4,
    target: float = 0.6,
    batch_size: int = 256,
    fanouts: tuple[int, ...] = (5, 5),
) -> ExperimentResult:
    """GIDS vs DGL-mmap time-to-accuracy on the IGB-Full replica.

    A larger batch than the calibrated workload default is used so the
    model converges within a short trace; both loaders use the same one,
    so the comparison stays apples-to-apples.
    """
    workload = get_workload("IGB-Full")
    system = workload.system(ssd)
    common = dict(batch_size=batch_size, fanouts=fanouts, seed=21)

    from ..sampling.neighbor import NeighborSampler

    eval_ids = workload.dataset.train_ids[:200]
    traces: list[AccuracyTrace] = []
    for build in (
        lambda: GIDSDataLoader(
            workload.dataset, system, workload.loader_config(),
            hot_nodes=workload.hot_nodes, **common,
        ),
        lambda: DGLMmapLoader(workload.dataset, system, **common),
    ):
        train_loader = build()
        timing_loader = build()
        eval_sampler = NeighborSampler(
            workload.dataset.graph, fanouts, seed=99
        )
        model = GraphSAGE(
            workload.dataset.feature_dim, 64, num_classes,
            num_layers=len(fanouts), lr=0.05, seed=4,
        )
        traces.append(
            _run_trace(
                train_loader, timing_loader, eval_sampler, model,
                eval_ids, num_classes, steps, eval_every, label_seed=1,
            )
        )

    gids = traces[0]
    return ExperimentResult(
        experiment=f"Extension: time to {target:.0%} accuracy, GIDS vs "
        f"DGL-mmap ({ssd.name}, IGB-Full)",
        headers=["loader", "total ms", "final acc %", f"ms to {target:.0%}",
                 "vs GIDS", "same acc curve"],
        rows=[row + [bool(np.allclose(gids.accuracies, trace.accuracies,
                                      atol=1e-9))]
              for row, trace in zip(_trace_rows(traces, target), traces)],
        formats=["", ".2f", ".1f", ".2f", ".3f", ""],
    )


def _trace_rows(traces: list[AccuracyTrace], target: float) -> list[list]:
    """A row per trace: total ms, final accuracy %, ms to ``target`` and
    that time over the first trace's (``None`` where one never got there)."""
    first = traces[0].time_to(target)
    rows = []
    for trace in traces:
        reached = trace.time_to(target)
        rows.append([
            trace.loader, trace.times_s[-1] * 1e3, 100 * trace.accuracies[-1],
            None if reached is None else reached * 1e3,
            reached / first if reached and first else None,
        ])
    return rows


def fullgraph_vs_minibatch(
    ssd: SSDSpec = SAMSUNG_980PRO,
    *,
    steps: int = 50,
    eval_every: int = 10,
    num_classes: int = 4,
    target: float = 0.6,
    batch_size: int = 256,
    fanouts: tuple[int, ...] = (5, 5),
    max_epochs: int = 20,
    hbm_budget_bytes: float = 21 * 2**20,
    scale: float = 5e-5,
) -> ExperimentResult:
    """Full-graph partition sweeps vs mini-batch GIDS, same SSD budget.

    Both arms train the same GraphSAGE geometry on the same IGB-Full
    replica against the same storage model and chase the same accuracy
    target on the same eval nodes (the first 200 train ids, the synthetic
    task's convention).  The mini-batch arm pays random 4K feature reads
    per sampled batch; the full-graph arm pays sequential feature
    streaming plus activation spill/reload under a deliberately tight HBM
    budget — the memory-wall regime.  Neither arm is "correct": the
    experiment quantifies which data path converts SSD seconds into
    accuracy faster.

    A smaller replica than the GIDS-vs-mmap experiment's is used because
    the full-graph arm materializes every layer's activations for the
    whole graph (that being the point of the workload).
    """
    from ..fullgraph import FullGraphConfig, FullGraphTrainer
    from ..sampling.neighbor import NeighborSampler

    workload = get_workload("IGB-Full", scale=scale)
    system = workload.system(ssd)
    common = dict(batch_size=batch_size, fanouts=fanouts, seed=21)
    eval_ids = workload.dataset.train_ids[:200]

    def build():
        return GIDSDataLoader(
            workload.dataset, system, workload.loader_config(),
            hot_nodes=workload.hot_nodes, **common,
        )

    model = GraphSAGE(
        workload.dataset.feature_dim, 64, num_classes,
        num_layers=len(fanouts), lr=0.05, seed=4,
    )
    eval_sampler = NeighborSampler(workload.dataset.graph, fanouts, seed=99)
    mini = _run_trace(
        build(), build(), eval_sampler, model, eval_ids, num_classes,
        steps, eval_every, label_seed=1,
    )

    trainer = FullGraphTrainer(
        workload.dataset,
        system,
        FullGraphConfig(
            hidden_dim=64,
            num_classes=num_classes,
            num_layers=len(fanouts),
            hbm_budget_bytes=hbm_budget_bytes,
            label_seed=1,
            model_seed=4,
        ),
    )
    trainer.run_to_accuracy(target, max_epochs=max_epochs)
    full = AccuracyTrace(
        loader="GIDS-fullgraph",
        times_s=list(trainer.epoch_end_times_s),
        accuracies=list(trainer.accuracies),
    )

    block = trainer.fullgraph_block(target_accuracy=target)
    traffic = block["traffic"]
    mini_row, full_row = _trace_rows([mini, full], target)
    fullgraph = [block["epochs_completed"], block["num_partitions"],
                 block["activations_resident"], traffic["spill_pages"],
                 traffic["reload_pages"]]
    return ExperimentResult(
        experiment=f"Extension: time to {target:.0%} accuracy, full-graph "
        f"sweeps vs mini-batch GIDS ({ssd.name}, IGB-Full x{scale:g}, "
        f"{hbm_budget_bytes / 2**20:g} MiB HBM)",
        headers=["arm", "total ms", "final acc %", f"ms to {target:.0%}",
                 "vs mini-batch", "epochs", "partitions", "resident",
                 "spill pages", "reload pages"],
        rows=[mini_row + [None] * 5, full_row + fullgraph],
        formats=["", ".2f", ".1f", ".2f", ".3f", "", "", "", "", ""],
    )
