"""Long-run consistency: the loader's state machine over many epochs.

The window buffer, accumulator and cache interact across epoch boundaries
(seed reshuffles, merged groups spanning epochs).  These tests run long
enough to cross several epochs and check the bookkeeping stays balanced.
"""

import pytest

from repro import GIDSDataLoader, LoaderConfig, SystemConfig, load_scaled
from repro.config import INTEL_OPTANE


@pytest.fixture(scope="module")
def loader_factory():
    dataset = load_scaled("IGB-tiny", 0.02, seed=8)
    system = SystemConfig(
        ssd=INTEL_OPTANE,
        cpu_memory_limit_bytes=dataset.total_bytes * 0.5,
    )

    def build(**config_overrides):
        defaults = dict(
            gpu_cache_bytes=dataset.feature_data_bytes * 0.03,
            cpu_buffer_fraction=0.10,
            window_depth=4,
        )
        defaults.update(config_overrides)
        return GIDSDataLoader(
            dataset,
            system,
            LoaderConfig(**defaults),
            batch_size=16,
            fanouts=(4, 4),
            seed=2,
        )

    n_train = len(dataset.train_ids)
    return build, n_train


class TestMultiEpochRuns:
    def test_invariants_hold_after_many_epochs(self, loader_factory):
        build, n_train = loader_factory
        loader = build()
        iterations = 4 * (-(-n_train // 16))  # ~4 epochs
        report = loader.run(iterations, warmup=5)
        assert report.num_iterations == iterations
        loader.cache.check_invariants()

    def test_drain_balances_after_arbitrary_stop(self, loader_factory):
        """Stopping mid-window and draining must leave zero pins."""
        build, _ = loader_factory
        loader = build(window_depth=8)
        loader.run(7, warmup=3)  # stop at an arbitrary point
        loader.window.drain()
        loader.cache.check_invariants()
        # Pending (non-resident) registrations must also be fully undone.
        assert loader.cache.num_pending == 0

    def test_cache_hits_improve_after_first_epoch(self, loader_factory):
        """Once the seed set recycles, the cache should be warmer than on
        the cold first epoch (temporal locality across epochs)."""
        build, n_train = loader_factory
        per_epoch = -(-n_train // 16)
        loader = build()
        first = loader.run(per_epoch, warmup=0)
        later = loader.run(per_epoch, warmup=0)
        assert (
            later.gpu_cache_hit_ratio >= first.gpu_cache_hit_ratio
        )

    def test_merged_groups_cross_epoch_boundary(self, loader_factory):
        """The accumulator may merge the last batches of one epoch with
        the first of the next; iteration accounting must stay exact."""
        build, n_train = loader_factory
        loader = build(
            gpu_cache_bytes=0.0,
            cpu_buffer_fraction=0.0,
            window_depth=0,
            max_merged_iterations=16,
        )
        per_epoch = -(-n_train // 16)
        iterations = per_epoch + 3  # forces a boundary crossing
        report = loader.run(iterations, warmup=0)
        assert report.num_iterations == iterations
        # The first epoch's iterations cover every training seed exactly
        # once, regardless of how groups were merged across the boundary.
        first_epoch_seeds = sum(
            it.num_seeds for it in report.iterations[:per_epoch]
        )
        assert first_epoch_seeds == n_train

    def test_deterministic_replay(self, loader_factory):
        """Two identically seeded loaders produce identical reports."""
        build, _ = loader_factory
        a = build().run(12, warmup=2)
        b = build().run(12, warmup=2)
        for x, y in zip(a.iterations, b.iterations):
            assert x.num_input_nodes == y.num_input_nodes
            assert x.counters.storage_requests == y.counters.storage_requests
            assert x.times.aggregation == pytest.approx(y.times.aggregation)
        assert a.e2e_time == pytest.approx(b.e2e_time)
