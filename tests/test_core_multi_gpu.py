"""Unit tests for the data-parallel helpers: the fleet's seed sharding
(``repro.core.fleet``) and the shared-SSD contention model
(``repro.sim.ssd``)."""

import numpy as np
import pytest

from repro.config import INTEL_OPTANE
from repro.core.fleet import partition_shards, shard_train_ids
from repro.errors import ConfigError
from repro.sim.ssd import contended_ssd


class TestShardTrainIds:
    def test_disjoint_and_complete(self):
        ids = np.arange(100)
        shards = shard_train_ids(ids, 4, seed=0)
        assert len(shards) == 4
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, ids)
        for a in range(4):
            for b in range(a + 1, 4):
                assert len(np.intersect1d(shards[a], shards[b])) == 0

    def test_balanced(self):
        shards = shard_train_ids(np.arange(103), 4, seed=0)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = shard_train_ids(np.arange(50), 3, seed=5)
        b = shard_train_ids(np.arange(50), 3, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_too_many_shards(self):
        with pytest.raises(ConfigError):
            shard_train_ids(np.arange(3), 4)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            shard_train_ids(np.array([1, 2, 2, 3]), 2)

    def test_balance_is_exact_largest_remainder(self):
        """n = q*k + r ids -> exactly r shards of q+1 and k-r of q."""
        for n, k in [(103, 4), (100, 7), (5000, 16), (50, 3)]:
            sizes = sorted(
                len(s) for s in shard_train_ids(np.arange(n), k, seed=1)
            )
            q, r = divmod(n, k)
            assert sizes == [q] * (k - r) + [q + 1] * r

    def test_balanced_with_sparse_ids(self):
        """Balance must hold for arbitrary id values, not just arange."""
        rng = np.random.default_rng(7)
        ids = np.unique(rng.integers(0, 10**9, size=997))
        shards = shard_train_ids(ids, 8, seed=2)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.sort(np.concatenate(shards)), ids)

    def test_growth_moves_few_ids(self):
        """Rendezvous assignment: growing k -> k+1 shards reassigns
        O(n/k) ids, not the O(n) a strided split reshuffles."""
        ids = np.arange(5000)
        for k in (2, 4, 8):
            before = np.empty(len(ids), dtype=np.int64)
            for s, shard in enumerate(shard_train_ids(ids, k, seed=0)):
                before[shard] = s
            after = np.empty(len(ids), dtype=np.int64)
            for s, shard in enumerate(shard_train_ids(ids, k + 1, seed=0)):
                after[shard] = s
            moved = int(np.count_nonzero(before != after))
            # Ideal consistent hashing moves n/(k+1); allow 2x for the
            # largest-remainder rebalance spill.
            assert moved <= 2 * len(ids) / (k + 1)

    def test_growth_stability_documented_destination(self):
        """Most moved ids land on the newly added shard, i.e. the old
        shards keep their members (warm caches survive scale-out)."""
        ids = np.arange(5000)
        k = 4
        old = {s: set(shard) for s, shard in
               enumerate(shard_train_ids(ids, k, seed=0))}
        new = shard_train_ids(ids, k + 1, seed=0)
        moved_to_new = sum(
            1 for i in new[k] if any(i in old[s] for s in range(k))
        )
        total_moved = sum(
            len(set(new[s]) - old[s]) for s in range(k)
        ) + len(new[k])
        assert moved_to_new >= 0.9 * len(new[k])
        assert total_moved <= 2 * len(ids) / (k + 1)


class TestPartitionShards:
    def test_disjoint_complete_and_balanced(self, small_dataset):
        shards = partition_shards(small_dataset, 4, seed=0)
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(
            merged, np.sort(np.asarray(small_dataset.train_ids))
        )
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, small_dataset):
        a = partition_shards(small_dataset, 3, seed=9)
        b = partition_shards(small_dataset, 3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_single_shard(self, small_dataset):
        shards = partition_shards(small_dataset, 1, seed=0)
        assert len(shards) == 1
        assert np.array_equal(
            shards[0], np.sort(np.asarray(small_dataset.train_ids))
        )

    def test_invalid(self, small_dataset):
        with pytest.raises(ConfigError):
            partition_shards(small_dataset, 0)


class TestContendedSSD:
    def test_fair_share(self):
        shared = contended_ssd(INTEL_OPTANE, 4)
        assert shared.peak_iops == pytest.approx(INTEL_OPTANE.peak_iops / 4)
        assert shared.read_latency_s == INTEL_OPTANE.read_latency_s

    def test_single_gpu_identity(self):
        shared = contended_ssd(INTEL_OPTANE, 1)
        assert shared.peak_iops == INTEL_OPTANE.peak_iops

    def test_invalid(self):
        with pytest.raises(ConfigError):
            contended_ssd(INTEL_OPTANE, 0)
