"""One mini-batch loader contract: seed → sample → serve → report.

Every loader the paper compares (Figs. 13-15) — GIDS, BaM, Ginex, DGL-mmap
and UVA — draws shuffled seed batches from one stream, samples their
computational graphs with the same samplers and reports per-iteration
modeled time the same way; they differ only in how a sampled batch's
features are *served*.  :class:`MiniBatchLoader` owns everything they share,
in the shape of GraphBolt's seed → sample → fetch datapipe, so a comparison
isolates exactly the serving technique under test:

* the :class:`~repro.sampling.seeds.SeedBatchStream` over the loader's RNG;
* the neighbor / LADIES / heterogeneous sampler factory;
* :meth:`run` (unmeasured warm-up, then a measured :class:`RunReport`),
  :meth:`iter_batches` and the default :meth:`fetch_features`;
* the modeled clock (:attr:`sim_now_s`) and one ``IterationMetrics``
  builder.

A loader supplies its ``name``, its ``__init__``,
:meth:`next_training_group` — serve the next group of iterations (one
mini-batch, a Ginex super-batch, a GIDS accumulator-merged group) and
return ``(mini-batch, metrics)`` pairs in iteration order — and, when
measurement needs it, :meth:`_measurement`.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigError
from ..graph.datasets import ScaledDataset
from ..sampling.ladies import LadiesSampler
from ..sampling.minibatch import MiniBatch
from ..sampling.neighbor import NeighborSampler
from ..sampling.seeds import SeedBatchStream
from ..sim.counters import TransferCounters
from ..utils import as_rng
from .metrics import IterationMetrics, RunReport, StageTimes


class MiniBatchLoader:
    """The shared skeleton of every mini-batch dataloader.

    Args:
        dataset: the (scaled) graph dataset to train on.
        system: hardware configuration.
        batch_size: seed nodes per mini-batch.
        seed: RNG seed (or generator) shared by the seed-batch shuffles and
            the sampler.  The seed stream draws one permutation per epoch at
            the moment the previous epoch runs dry — bit-identical to
            chaining :func:`~repro.sampling.seeds.epoch_seed_batches`
            generators over the same generator.
    """

    #: Unmeasured iterations :meth:`run` executes before measuring.
    WARMUP = 0
    #: Whether data preparation runs ahead of training, so end-to-end time
    #: is ``max(prep, train)`` (:class:`RunReport`).
    overlapped = False
    #: The fault-injection scenario, for loaders that model faults.
    fault_plan = None

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        *,
        batch_size: int,
        seed: int | np.random.Generator | None,
    ) -> None:
        self.dataset = dataset
        self.system = system
        self.batch_size = batch_size
        self._rng = as_rng(seed)
        self._seed_stream = SeedBatchStream(
            dataset.train_ids, batch_size, self._rng
        )
        self._sim_now_s = 0.0

    def _build_sampler(
        self,
        sampler_kind: str,
        fanouts: tuple[int, ...],
        layer_sizes: tuple[int, ...] | None = None,
        hetero_fanouts: tuple[int | dict[str, int], ...] | None = None,
    ):
        """The sampler of ``sampler_kind``, drawing from the loader's RNG."""
        if sampler_kind == "neighbor":
            return NeighborSampler(
                self.dataset.graph, fanouts, seed=self._rng
            )
        if sampler_kind == "ladies":
            sizes = layer_sizes if layer_sizes is not None else (512,) * 3
            return LadiesSampler(self.dataset.graph, sizes, seed=self._rng)
        if sampler_kind == "hetero":
            if self.dataset.hetero is None:
                raise ConfigError(
                    "the 'hetero' sampler requires a heterogeneous dataset"
                )
            from ..sampling.hetero_neighbor import HeteroNeighborSampler

            typed = hetero_fanouts if hetero_fanouts is not None else fanouts
            return HeteroNeighborSampler(
                self.dataset.hetero, typed, seed=self._rng
            )
        raise ConfigError(
            f"unknown sampler kind {sampler_kind!r}; "
            "expected 'neighbor', 'ladies' or 'hetero'"
        )

    def _sample(self) -> MiniBatch:
        """Sample the computational graph of the next seed batch."""
        return self.sampler.sample(self._seed_stream.next())

    @staticmethod
    def _metrics(
        batch: MiniBatch, times: StageTimes, counters: TransferCounters
    ) -> IterationMetrics:
        """One iteration's report entry: its modeled times and traffic."""
        return IterationMetrics(
            times=times,
            num_seeds=len(batch.seeds),
            num_input_nodes=batch.num_input_nodes,
            num_sampled=batch.num_sampled,
            num_edges=batch.num_edges,
            counters=counters,
        )

    def _advance(
        self, pairs: list[tuple[MiniBatch, IterationMetrics]]
    ) -> list[tuple[MiniBatch, IterationMetrics]]:
        """Move the modeled clock past a served group; returns ``pairs``."""
        self._sim_now_s += sum(m.times.total for _, m in pairs)
        return pairs

    # ------------------------------------------------------------------
    # The loop

    def next_training_group(
        self, remaining: int
    ) -> list[tuple[MiniBatch, IterationMetrics]]:
        """Serve the next group of at most ``remaining`` iterations."""
        raise NotImplementedError

    @contextmanager
    def _measurement(self):
        """Bracket the measured iterations of :meth:`run` (after warm-up)."""
        yield

    def _drive(self, num_iterations: int, report: RunReport | None) -> None:
        done = 0
        while done < num_iterations:
            pairs = self.next_training_group(num_iterations - done)
            if report is not None:
                for _, metrics in pairs:
                    report.append(metrics)
            done += len(pairs)

    def run(
        self, num_iterations: int, *, warmup: int | None = None
    ) -> RunReport:
        """Execute ``warmup`` unmeasured iterations (default
        :attr:`WARMUP`), then measure ``num_iterations``.

        Mirrors the paper's methodology (Section 4.1): caches stay warm
        across the boundary, only statistics and timings reset.
        """
        if num_iterations <= 0:
            raise ConfigError("num_iterations must be positive")
        warmup = self.WARMUP if warmup is None else warmup
        if warmup < 0:
            raise ConfigError("warmup must be non-negative")
        self._drive(warmup, None)
        report = RunReport(loader_name=self.name, overlapped=self.overlapped)
        with self._measurement():
            self._drive(num_iterations, report)
        return report

    def fetch_features(self, batch: MiniBatch) -> np.ndarray:
        """The input feature matrix delivered for ``batch``, in
        ``input_nodes`` order.  Batches are fetched in the order
        :meth:`next_training_group` produced them."""
        return self.store.fetch(batch.input_nodes)

    def iter_batches(
        self, num_iterations: int
    ) -> Iterator[tuple[MiniBatch, np.ndarray]]:
        """Yield ``(mini-batch, input feature matrix)`` pairs for training:
        the functional companion of :meth:`run`."""
        if num_iterations <= 0:
            raise ConfigError("num_iterations must be positive")
        produced = 0
        while produced < num_iterations:
            pairs = self.next_training_group(num_iterations - produced)
            for batch, _ in pairs:
                yield batch, self.fetch_features(batch)
                produced += 1

    @property
    def sim_now_s(self) -> float:
        """Simulated time consumed so far (modeled seconds, monotonic)."""
        return self._sim_now_s
