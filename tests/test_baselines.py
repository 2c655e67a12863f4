"""Unit tests for the baseline dataloaders (DGL-mmap, Ginex, UVA)."""

import pytest

from repro import (
    DGLMmapLoader,
    GinexLoader,
    GraphSAGE,
    SystemConfig,
    TrainingPipeline,
    UVALoader,
    load_scaled,
)
from repro.config import INTEL_OPTANE, SAMSUNG_980PRO
from repro.errors import CapacityError, ConfigError


class TestDGLMmapLoader:
    def test_runs_and_counts(self, small_dataset, tight_system):
        loader = DGLMmapLoader(
            small_dataset, tight_system, batch_size=32, fanouts=(5, 5), seed=0
        )
        report = loader.run(5, warmup=5)
        assert report.num_iterations == 5
        assert not report.overlapped

    def test_faults_when_memory_tight(self, small_dataset, tight_system):
        loader = DGLMmapLoader(
            small_dataset, tight_system, batch_size=32, fanouts=(5, 5), seed=0
        )
        report = loader.run(5, warmup=20)
        assert report.counters.page_faults > 0

    def test_no_faults_when_dataset_fits(self, small_dataset):
        roomy = SystemConfig()  # 1 TB of CPU memory
        loader = DGLMmapLoader(
            roomy_dataset := small_dataset,
            roomy,
            batch_size=32,
            fanouts=(5, 5),
            seed=0,
        )
        # Warm thoroughly: every page the workload touches becomes resident.
        report = loader.run(5, warmup=100)
        fault_rate = report.counters.page_faults / max(
            1, report.total_input_nodes
        )
        assert fault_rate < 0.05

    def test_higher_latency_ssd_slows_aggregation(self, small_dataset, tight_system):
        def agg_time(ssd):
            system = tight_system.with_ssd(ssd)
            loader = DGLMmapLoader(
                small_dataset, system, batch_size=32, fanouts=(5, 5), seed=0
            )
            return loader.run(5, warmup=10).aggregation_time

        assert agg_time(SAMSUNG_980PRO) > 3 * agg_time(INTEL_OPTANE)

    def test_transfer_stage_present(self, small_dataset, tight_system):
        loader = DGLMmapLoader(
            small_dataset, tight_system, batch_size=32, fanouts=(5,), seed=0
        )
        report = loader.run(3, warmup=0)
        assert report.stage_totals.transfer > 0

    def test_iter_batches(self, small_dataset, tight_system):
        loader = DGLMmapLoader(
            small_dataset, tight_system, batch_size=16, fanouts=(3,), seed=0
        )
        pairs = list(loader.iter_batches(2))
        assert len(pairs) == 2
        batch, feats = pairs[0]
        assert feats.shape[0] == batch.num_input_nodes

    def test_invalid_args(self, small_dataset, tight_system):
        with pytest.raises(ConfigError):
            DGLMmapLoader(small_dataset, tight_system, fault_threads=0)
        loader = DGLMmapLoader(small_dataset, tight_system, batch_size=16)
        with pytest.raises(ConfigError):
            loader.run(0)


class TestGinexLoader:
    def test_runs(self, small_dataset, tight_system):
        loader = GinexLoader(
            small_dataset,
            tight_system,
            batch_size=32,
            fanouts=(5, 5),
            seed=0,
        )
        report = loader.run(6, warmup=8)
        assert report.num_iterations == 6

    def test_rejects_heterogeneous(self, tight_system):
        hetero = load_scaled("MAG240M", 1e-5, seed=0)
        with pytest.raises(ConfigError):
            GinexLoader(hetero, SystemConfig())

    def test_belady_beats_mmap_page_cache(self, small_dataset, tight_system):
        """Same memory budget: Ginex's optimal cache must not miss more
        than the mmap LRU page cache (Belady is optimal)."""
        mmap = DGLMmapLoader(
            small_dataset, tight_system, batch_size=32, fanouts=(5, 5), seed=3
        )
        ginex = GinexLoader(
            small_dataset,
            tight_system,
            batch_size=32,
            fanouts=(5, 5),
            seed=3,
        )
        r_mmap = mmap.run(16, warmup=60)
        r_ginex = ginex.run(16, warmup=64)
        miss_mmap = r_mmap.counters.page_faults
        miss_ginex = r_ginex.counters.storage_requests
        assert miss_ginex <= miss_mmap * 1.1


class TestLoaderContract:
    """The baselines speak the GIDS loader contract: training through
    :class:`TrainingPipeline` reports what :meth:`run` measures."""

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (GinexLoader, {}),
            (DGLMmapLoader, {}),
            (UVALoader, {}),
        ],
        ids=["ginex", "mmap", "uva"],
    )
    def test_pipeline_report_equals_run(
        self, cls, kwargs, small_dataset, tight_system
    ):
        system = SystemConfig() if cls is UVALoader else tight_system

        def make():
            return cls(
                small_dataset, system, batch_size=32, fanouts=(4, 4),
                seed=5, **kwargs,
            )

        pipeline = TrainingPipeline(
            make(),
            GraphSAGE(small_dataset.feature_dim, 8, 3, num_layers=2),
            num_classes=3,
        )
        pipeline.train(11)
        expected = make().run(11, warmup=0)
        assert pipeline.report.num_iterations == 11
        assert pipeline.report == expected

    def test_default_warmups(self):
        assert (UVALoader.WARMUP, DGLMmapLoader.WARMUP, GinexLoader.WARMUP) \
            == (0, 100, 100)


class TestUVALoader:
    def test_requires_dataset_in_memory(self, small_dataset):
        tight = SystemConfig(
            cpu_memory_limit_bytes=small_dataset.total_bytes * 0.5
        )
        with pytest.raises(CapacityError):
            UVALoader(small_dataset, tight)

    def test_runs_when_it_fits(self, small_dataset):
        loader = UVALoader(small_dataset, SystemConfig(), batch_size=32)
        report = loader.run(4)
        assert report.num_iterations == 4
        assert report.counters.storage_requests == 0

    def test_faster_than_mmap_under_pressure(
        self, small_dataset, tight_system
    ):
        uva = UVALoader(small_dataset, SystemConfig(), batch_size=32, seed=0)
        mmap = DGLMmapLoader(
            small_dataset, tight_system, batch_size=32, seed=0
        )
        r_uva = uva.run(5)
        r_mmap = mmap.run(5, warmup=10)
        assert r_uva.e2e_time < r_mmap.e2e_time
