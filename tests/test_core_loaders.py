"""Unit tests for the GIDS and BaM dataloaders."""

import numpy as np
import pytest

from repro import (
    BaMDataLoader,
    GIDSDataLoader,
    LoaderConfig,
)
from repro.errors import ConfigError


@pytest.fixture
def gids(small_dataset, tight_system, small_loader_config):
    return GIDSDataLoader(
        small_dataset,
        tight_system,
        small_loader_config,
        batch_size=32,
        fanouts=(5, 5),
        seed=1,
    )


class TestConstruction:
    def test_cache_sized_from_config(self, gids, small_loader_config):
        expected = int(small_loader_config.gpu_cache_bytes // 4096)
        assert gids.cache.capacity_lines == expected

    def test_cpu_buffer_sized_from_fraction(self, gids, small_dataset):
        assert gids.cpu_buffer is not None
        expected = int(
            0.10 * small_dataset.feature_data_bytes // gids.store.feature_bytes
        )
        assert gids.cpu_buffer.num_resident == expected

    def test_no_buffer_when_fraction_zero(
        self, small_dataset, tight_system
    ):
        loader = GIDSDataLoader(
            small_dataset,
            tight_system,
            LoaderConfig(cpu_buffer_fraction=0.0, gpu_cache_bytes=1e6),
            batch_size=16,
            fanouts=(3,),
        )
        assert loader.cpu_buffer is None

    def test_hot_nodes_override(self, small_dataset, tight_system):
        custom = np.arange(small_dataset.num_nodes)[::-1].copy()
        loader = GIDSDataLoader(
            small_dataset,
            tight_system,
            LoaderConfig(cpu_buffer_fraction=0.01, gpu_cache_bytes=1e6),
            batch_size=16,
            fanouts=(3,),
            hot_nodes=custom,
        )
        assert loader.cpu_buffer.resident_ids[0] == custom[0]

    def test_ladies_sampler_option(self, small_dataset, tight_system):
        loader = GIDSDataLoader(
            small_dataset,
            tight_system,
            LoaderConfig(gpu_cache_bytes=1e6),
            sampler_kind="ladies",
            layer_sizes=(32, 32),
            batch_size=16,
        )
        report = loader.run(3, warmup=1)
        assert report.num_iterations == 3

    def test_unknown_sampler_rejected(self, small_dataset, tight_system):
        with pytest.raises(ConfigError):
            GIDSDataLoader(
                small_dataset, tight_system, sampler_kind="cluster"
            )


class TestRun:
    def test_iteration_count(self, gids):
        report = gids.run(7, warmup=2)
        assert report.num_iterations == 7

    def test_overlapped_flag_follows_accumulator(
        self, small_dataset, tight_system, small_loader_config
    ):
        gids = GIDSDataLoader(
            small_dataset, tight_system, small_loader_config, batch_size=16
        )
        assert gids.run(2, warmup=0).overlapped
        bam = BaMDataLoader(
            small_dataset, tight_system, small_loader_config, batch_size=16
        )
        assert not bam.run(2, warmup=0).overlapped

    def test_conservation_of_requests(self, gids):
        """Every input node is served by exactly one tier.

        Cache and storage operate on pages; the CPU buffer on nodes.  With
        dim-1024 features (1 node == 1 page) the counts must add up."""
        report = gids.run(5, warmup=2)
        for it in report.iterations:
            served = (
                it.counters.storage_requests
                + it.counters.gpu_cache_hits
                + it.counters.cpu_buffer_requests
            )
            assert served == it.num_input_nodes

    def test_times_positive(self, gids):
        report = gids.run(5, warmup=1)
        totals = report.stage_totals
        assert totals.sampling > 0
        assert totals.aggregation > 0
        assert totals.training > 0
        assert totals.transfer == 0.0  # GIDS fetches straight into the GPU

    def test_warmup_excluded_from_report(self, gids):
        report = gids.run(4, warmup=3)
        assert report.num_iterations == 4

    def test_invalid_run_args(self, gids):
        with pytest.raises(ConfigError):
            gids.run(0)
        with pytest.raises(ConfigError):
            gids.run(1, warmup=-1)

    def test_accumulator_merges_small_batches(
        self, small_dataset, tight_system
    ):
        """With a tiny batch size the accumulator must merge iterations,
        which shows up as identical merged-group aggregation shares."""
        cfg = LoaderConfig(
            gpu_cache_bytes=0.0,
            cpu_buffer_fraction=0.0,
            window_depth=0,
            accumulator_enabled=True,
        )
        loader = GIDSDataLoader(
            small_dataset, tight_system, cfg, batch_size=4, fanouts=(2,)
        )
        threshold = loader.accumulator.node_threshold
        group = loader._next_group(remaining=1000)
        accumulated = sum(e.batch.num_input_nodes for e in group)
        assert len(group) > 1
        assert (
            accumulated >= threshold
            or len(group) == cfg.max_merged_iterations
        )


class TestIterBatches:
    def test_yields_features_aligned_with_inputs(self, gids):
        for batch, feats in gids.iter_batches(3):
            assert feats.shape == (batch.num_input_nodes, 1024)

    def test_yields_exact_count(self, gids):
        assert len(list(gids.iter_batches(5))) == 5


class TestBaM:
    def test_bam_disables_gids_features(
        self, small_dataset, tight_system, small_loader_config
    ):
        bam = BaMDataLoader(
            small_dataset, tight_system, small_loader_config, batch_size=16
        )
        assert bam.accumulator is None
        assert bam.cpu_buffer is None
        assert bam.window.depth == 0
        # The BaM software cache itself stays active.
        assert bam.cache.capacity_lines > 0
