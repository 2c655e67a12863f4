"""End-to-end training pipeline: any dataloader + the NumPy GraphSAGE.

Combines the functional side (real sampled batches, real features, real
gradient steps) with the modeled side (per-stage simulated time from the
loader's :meth:`run`).  Used by the examples to demonstrate that the GIDS
dataloader trains an actual model, and by integration tests to check the
loaders agree on the workload they serve.

The pipeline is *stateful and resumable*: it keeps the completed-step
count, loss history, run report and the queue of already-aggregated but
not-yet-trained mini-batches as instance state, and :meth:`run_until`
trains to a completed-step count.  A loss is appended only after its
training step has fully completed, so an interruption at any point can
never record a half-applied step; together with
:meth:`state_dict`/:meth:`load_state_dict` this is what makes crash-safe
checkpoint/resume bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import PipelineError
from ..sampling.minibatch import MiniBatch
from ..state import Stateful, child, children, guard, scalar, seq
from ..training.graphsage import GraphSAGE, synthetic_labels
from .metrics import RunReport


@dataclass
class TrainingResult:
    """Losses and accuracy of a functional training run."""

    losses: list[float] = field(default_factory=list)
    final_train_accuracy: float = 0.0

    @property
    def num_steps(self) -> int:
        return len(self.losses)


class TrainingPipeline(Stateful):
    """Drives real GNN training through a dataloader.

    Args:
        loader: any :class:`~repro.pipeline.loader.MiniBatchLoader` (GIDS,
            BaM, DGL-mmap, Ginex).  Every served iteration's modeled
            metrics are collected into :attr:`report`; the loaders that
            carry a state table (the GIDS family) also support
            checkpoint/resume.
        model: a :class:`GraphSAGE` whose layer count matches the sampler.
        num_classes: label space size for the synthetic node-classification
            task (labels derive deterministically from node features).
        label_seed: seed of the label projection.
    """

    def __init__(
        self,
        loader,
        model: GraphSAGE,
        *,
        num_classes: int,
        label_seed: int = 0,
    ) -> None:
        if num_classes <= 0:
            raise PipelineError("num_classes must be positive")
        self.loader = loader
        self.model = model
        self.num_classes = num_classes
        self.label_seed = label_seed

        self.completed_steps = 0
        self.losses: list[float] = []
        self.report = RunReport(
            loader_name=loader.name, overlapped=loader.overlapped
        )
        # Aggregated-but-untrained mini-batches: the accumulator merges
        # several future iterations into one storage batch, so at any
        # moment some batches have been served but not yet trained on.
        self._pending: deque[MiniBatch] = deque()
        self._last_batch: MiniBatch | None = None
        self._last_features: np.ndarray | None = None

    def _labels_for(self, seeds: np.ndarray) -> np.ndarray:
        return synthetic_labels(
            self.loader.store,
            seeds,
            self.num_classes,
            seed=self.label_seed,
        )

    def train(self, num_iterations: int) -> TrainingResult:
        """Run ``num_iterations`` *additional* training steps."""
        if num_iterations <= 0:
            raise PipelineError("num_iterations must be positive")
        self.run_until(self.completed_steps + num_iterations)
        return self.result()

    def run_until(
        self,
        step: int,
        *,
        on_step: Callable[["TrainingPipeline"], bool | None] | None = None,
    ) -> None:
        """Train until ``completed_steps == step``, calling
        ``on_step(self)`` after each step; a true return ends the run there.

        The accumulator caps each storage group at the steps left to
        ``step``.  Each step becomes visible (loss appended,
        ``completed_steps`` advanced) only after
        :meth:`GraphSAGE.train_step` has returned, so an exception at any
        point — including one raised by ``on_step`` — leaves the pipeline
        consistent at the last completed step.
        """
        while self.completed_steps < step:
            if not self._pending:
                pairs = self.loader.next_training_group(
                    step - self.completed_steps
                )
                for batch, metrics in pairs:
                    self.report.append(metrics)
                    self._pending.append(batch)
            batch = self._pending.popleft()
            # The delivered matrix: under the GIDS family's integrity layer
            # it reflects any corruption that slipped past verification.
            features = self.loader.fetch_features(batch)
            labels = self._labels_for(batch.seeds)
            loss = self.model.train_step(batch, features, labels)
            self.losses.append(loss)
            self.completed_steps += 1
            self._last_batch = batch
            self._last_features = features
            if on_step is not None and on_step(self):
                return

    def result(self) -> TrainingResult:
        """The run's outcome so far (losses, step count, train accuracy)."""
        result = TrainingResult(losses=list(self.losses))
        if self._last_batch is not None:
            features = self._last_features
            if features is None:
                features = self.loader.store.fetch(
                    self._last_batch.input_nodes
                )
            predictions = self.model.predict(self._last_batch, features)
            labels = self._labels_for(self._last_batch.seeds)
            result.final_train_accuracy = float(
                np.mean(predictions == labels)
            )
        return result

    # ------------------------------------------------------------------
    # The run supervisor's driver protocol

    @property
    def clock_s(self) -> float:
        return self.loader.sim_now_s

    @property
    def tracer(self):
        return self.loader.tracer

    @property
    def crash_events(self) -> tuple:
        plan = self.loader.fault_plan
        return () if plan is None else plan.crash_events

    def checkpoint(self) -> dict:
        return self.state_dict()

    def restore(self, payload: dict) -> None:
        self.load_state_dict(payload)

    # ------------------------------------------------------------------
    # Checkpointing

    #: The whole training run (model, loader, progress).  The loader must
    #: carry the protocol itself (the GIDS family; the baseline loaders
    #: declare no state table and cannot be checkpointed mid-run), and the
    #: pipeline must have been constructed over the same task (loader
    #: configuration, model shape, class count, label seed) as the one that
    #: produced the snapshot.
    STATE = (
        guard("num_classes"),
        guard("label_seed"),
        scalar("completed_steps", int),
        seq(
            "losses", float,
            check=lambda self, losses: len(losses) != self.completed_steps
            and f"{len(losses)} losses for {self.completed_steps} steps",
        ),
        child("model"),
        child("loader"),
        child("report", cls=RunReport),
        children("pending", "_pending", cls=MiniBatch, into=deque),
        child("last_batch", "_last_batch", cls=MiniBatch, optional=True),
    )

    def _state_loaded(self) -> None:
        # Features are deterministic given the batch; re-fetched lazily.
        self._last_features = None
