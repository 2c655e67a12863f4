"""Cross-cutting loader behaviors: materialized features, LADIES paths,
epoch coverage, and report export with real loader output."""

import json

import numpy as np
import pytest

from repro import (
    GIDSDataLoader,
    LoaderConfig,
    SystemConfig,
)
from repro.baselines.mmap_loader import DGLMmapLoader
from repro.pipeline.export import report_to_json, reports_to_comparison_csv
from repro.pipeline.timeline import render_timeline


class TestMaterializedFeatures:
    def test_loader_serves_user_features(self, tiny_dataset):
        rng = np.random.default_rng(0)
        data = rng.random(
            (tiny_dataset.num_nodes, tiny_dataset.feature_dim),
            dtype=np.float32,
        )
        loader = GIDSDataLoader(
            tiny_dataset,
            SystemConfig(
                cpu_memory_limit_bytes=tiny_dataset.total_bytes * 0.5
            ),
            LoaderConfig(gpu_cache_bytes=1e6),
            batch_size=8,
            fanouts=(3,),
            features=data,
            seed=0,
        )
        for batch, feats in loader.iter_batches(2):
            assert np.array_equal(feats, data[batch.input_nodes])

    def test_wrong_shape_rejected(self, tiny_dataset):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            GIDSDataLoader(
                tiny_dataset,
                SystemConfig(),
                LoaderConfig(gpu_cache_bytes=1e6),
                features=np.zeros((3, 3), dtype=np.float32),
            )


class TestLadiesThroughLoaders:
    def test_gids_with_ladies(self, small_dataset, tight_system):
        loader = GIDSDataLoader(
            small_dataset,
            tight_system,
            LoaderConfig(gpu_cache_bytes=1e6),
            batch_size=32,
            sampler_kind="ladies",
            layer_sizes=(64, 64),
            seed=0,
        )
        report = loader.run(4, warmup=1)
        # LADIES shares candidates across the batch: tiny input sets.
        assert all(
            it.num_input_nodes < 32 + 2 * 64 for it in report.iterations
        )

    def test_mmap_with_ladies(self, small_dataset, tight_system):
        loader = DGLMmapLoader(
            small_dataset,
            tight_system,
            batch_size=32,
            sampler_kind="ladies",
            layer_sizes=(64, 64),
            seed=0,
        )
        assert loader.run(3, warmup=2).num_iterations == 3


class TestEpochCoverage:
    def test_loader_visits_every_train_id_once_per_epoch(self, tiny_dataset):
        loader = GIDSDataLoader(
            tiny_dataset,
            SystemConfig(
                cpu_memory_limit_bytes=tiny_dataset.total_bytes * 0.5
            ),
            LoaderConfig(gpu_cache_bytes=1e6, window_depth=0,
                         accumulator_enabled=False),
            batch_size=4,
            fanouts=(2,),
            seed=1,
        )
        n_train = len(tiny_dataset.train_ids)
        batches_per_epoch = -(-n_train // 4)
        seen = []
        for batch, _ in loader.iter_batches(batches_per_epoch):
            seen.extend(batch.seeds.tolist())
        assert sorted(set(seen)) == sorted(tiny_dataset.train_ids.tolist())


class TestExportWithRealReports:
    def test_json_and_csv_round_trip(self, small_dataset, tight_system):
        loader = GIDSDataLoader(
            small_dataset,
            tight_system,
            LoaderConfig(gpu_cache_bytes=1e6),
            batch_size=16,
            fanouts=(4,),
            seed=0,
        )
        report = loader.run(4, warmup=1)
        payload = json.loads(report_to_json(report))
        assert payload["loader"] == "GIDS"
        assert payload["iterations"] == 4
        assert payload["e2e_seconds"] > 0
        csv_text = reports_to_comparison_csv([report])
        assert csv_text.count("\n") == 2  # header + one loader row
        assert csv_text.splitlines()[1].startswith("GIDS,")

    def test_timeline_with_real_report(self, small_dataset, tight_system):
        loader = GIDSDataLoader(
            small_dataset,
            tight_system,
            LoaderConfig(gpu_cache_bytes=1e6),
            batch_size=16,
            fanouts=(4,),
            seed=0,
        )
        text = render_timeline(loader.run(6, warmup=1))
        assert "GIDS" in text
        assert "overlapped" in text
