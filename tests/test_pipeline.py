"""Unit tests for pipeline metrics and the functional training pipeline."""

import numpy as np
import pytest

from repro import GIDSDataLoader, LoaderConfig, GraphSAGE
from repro.errors import PipelineError
from repro.pipeline.metrics import (
    IterationMetrics,
    RunReport,
    StageTimes,
)
from repro.pipeline.runner import TrainingPipeline
from repro.sim.counters import TransferCounters


def metrics(sampling=1.0, agg=2.0, transfer=0.5, training=1.5, **counter_kwargs):
    return IterationMetrics(
        times=StageTimes(
            sampling=sampling,
            aggregation=agg,
            transfer=transfer,
            training=training,
        ),
        num_seeds=10,
        num_input_nodes=100,
        num_sampled=200,
        num_edges=150,
        counters=TransferCounters(**counter_kwargs),
    )


class TestStageTimes:
    def test_totals(self):
        t = StageTimes(sampling=1, aggregation=2, transfer=3, training=4)
        assert t.preparation == 6
        assert t.total == 10

    def test_negative_rejected(self):
        with pytest.raises(PipelineError):
            StageTimes(sampling=-1)

    def test_add(self):
        a = StageTimes(sampling=1)
        a.add(StageTimes(sampling=2, training=3))
        assert a.sampling == 3
        assert a.training == 3


class TestRunReport:
    def test_serial_e2e_sums_stages(self):
        report = RunReport("x", overlapped=False)
        report.append(metrics())
        report.append(metrics())
        assert report.e2e_time == pytest.approx(10.0)

    def test_overlapped_e2e_takes_max(self):
        report = RunReport("x", overlapped=True)
        report.append(metrics(sampling=1, agg=2, transfer=0, training=10))
        # prep = 3, training = 10 -> e2e = 10
        assert report.e2e_time == pytest.approx(10.0)

    def test_breakdown_fractions_sum_to_one(self):
        report = RunReport("x")
        report.append(metrics())
        fractions = report.breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_effective_bandwidth(self):
        report = RunReport("x")
        report.append(
            metrics(agg=2.0, storage_bytes=10, cpu_buffer_bytes=4, gpu_cache_bytes=6)
        )
        assert report.effective_aggregation_bandwidth == pytest.approx(10.0)
        assert report.pcie_ingress_bandwidth == pytest.approx(7.0)

    def test_time_per_iteration_empty_raises(self):
        with pytest.raises(PipelineError):
            RunReport("x").time_per_iteration()

    def test_counters_merged(self):
        report = RunReport("x")
        report.append(metrics(storage_requests=3))
        report.append(metrics(storage_requests=4))
        assert report.counters.storage_requests == 7


class TestTrainingPipeline:
    def test_real_training_through_gids(
        self, small_dataset, tight_system, small_loader_config
    ):
        loader = GIDSDataLoader(
            small_dataset,
            tight_system,
            small_loader_config,
            batch_size=64,
            fanouts=(4, 4),
            seed=0,
        )
        model = GraphSAGE(
            small_dataset.feature_dim, 32, 4, num_layers=2, lr=0.05, seed=0
        )
        pipeline = TrainingPipeline(loader, model, num_classes=4)
        result = pipeline.train(25)
        assert result is pipeline and result.completed_steps == 25
        assert np.mean(result.losses[-5:]) < np.mean(result.losses[:5])
        assert 0.0 <= result.final_train_accuracy() <= 1.0

    def test_invalid_args(self, small_dataset, tight_system):
        loader = GIDSDataLoader(
            small_dataset, tight_system, LoaderConfig(), batch_size=16
        )
        model = GraphSAGE(small_dataset.feature_dim, 8, 2, num_layers=3)
        with pytest.raises(PipelineError):
            TrainingPipeline(loader, model, num_classes=0)
        pipeline = TrainingPipeline(loader, model, num_classes=2)
        with pytest.raises(PipelineError):
            pipeline.train(0)
