"""Shared fixtures: small graphs, datasets and system configs.

Everything here is sized for speed — unit tests should complete in
milliseconds; heavier workload-level checks live in the integration tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import (
    INTEL_OPTANE,
    LoaderConfig,
    SystemConfig,
    load_scaled,
    power_law_graph,
)


# CI's regression-gate job runs tests/test_cache_gpu_differential.py and
# tests/test_sampler_differential.py, and the test job's training-kernels
# step tests/test_graphsage_differential.py, with
# ``--hypothesis-profile=differential --hypothesis-seed=0``.
settings.register_profile("differential", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def tiny_graph():
    """A 500-node power-law graph shared across read-only tests."""
    return power_law_graph(500, 4_000, skew=0.8, seed=7)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A 1000-node scaled IGB-tiny replica (feature dim 1024)."""
    return load_scaled("IGB-tiny", 0.01, seed=3)


@pytest.fixture(scope="session")
def small_dataset():
    """A 5000-node scaled IGB-tiny replica for loader-level tests."""
    return load_scaled("IGB-tiny", 0.05, seed=3)


@pytest.fixture
def tight_system(small_dataset):
    """System whose CPU memory holds roughly half the dataset.

    Mirrors the paper's IGB-Full situation (dataset ~2x usable CPU memory),
    so mmap-style loaders actually fault.
    """
    return SystemConfig(
        ssd=INTEL_OPTANE,
        num_ssds=1,
        cpu_memory_limit_bytes=small_dataset.total_bytes * 0.5,
    )


@pytest.fixture
def small_loader_config(small_dataset):
    """GIDS config with cache/buffer scaled to the small dataset."""
    return LoaderConfig(
        gpu_cache_bytes=small_dataset.feature_data_bytes * 0.05,
        cpu_buffer_fraction=0.10,
        window_depth=4,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
