"""Unit tests for the BaM-style GPU software cache with pinning."""

import numpy as np
import pytest

from repro.cache.gpu_cache import GPUSoftwareCache
from repro.errors import ConfigError


class TestBasicCaching:
    def test_miss_then_hit(self):
        cache = GPUSoftwareCache(4, seed=0)
        assert not cache.access(np.array([1, 2])).any()
        assert cache.access(np.array([1, 2])).all()
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_capacity_respected(self):
        cache = GPUSoftwareCache(3, seed=0)
        cache.access(np.arange(10))
        assert len(cache) == 3
        cache.check_invariants()

    def test_zero_capacity_streams_everything(self):
        cache = GPUSoftwareCache(0, seed=0)
        hits = cache.access(np.array([1, 1, 1]))
        assert not hits.any()
        assert cache.stats.bypasses == 3

    def test_eviction_counts(self):
        cache = GPUSoftwareCache(2, seed=0)
        cache.access(np.arange(5))
        assert cache.stats.evictions == 3

    def test_random_eviction_varies_with_seed(self):
        def survivors(seed):
            cache = GPUSoftwareCache(8, seed=seed)
            cache.access(np.arange(40))
            return frozenset(p for p in range(40) if p in cache)

        results = {survivors(s) for s in range(6)}
        assert len(results) > 1

    @pytest.mark.parametrize("seed", range(4))
    def test_resident_mask_is_membership(self, seed):
        """The fleet's peer probe: ``p in cache`` per page, vectorised —
        ids past the state arrays, negative ids, repeats, pending pages."""
        rng = np.random.default_rng(seed)
        cache = GPUSoftwareCache(8, seed=seed)
        assert not cache.resident_mask(np.array([0, 3, -1])).any()
        cache.access(rng.integers(0, 40, 30))
        cache.register_future(rng.integers(0, 60, 10))
        pages = np.concatenate([rng.integers(-5, 80, 50), [-(2**62), 2**62]])
        want = [int(p) in cache for p in pages]
        assert cache.resident_mask(pages).tolist() == want
        assert cache.resident_mask(pages[::2]).tolist() == want[::2]
        assert cache.resident_mask(np.zeros(0, np.int64)).shape == (0,)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            GPUSoftwareCache(-1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            GPUSoftwareCache(4, policy="fifo")


class TestWindowPinning:
    def test_registered_resident_page_survives_pressure(self):
        cache = GPUSoftwareCache(2, seed=0)
        cache.access(np.array([1, 2]))
        cache.register_future(np.array([1]))
        # Heavy pressure: page 1 is pinned ("USE"), so only page 2's slot
        # recycles.
        cache.access(np.arange(100, 120))
        assert 1 in cache
        cache.check_invariants()

    def test_access_consumes_reuse_unit(self):
        cache = GPUSoftwareCache(2, seed=0)
        cache.access(np.array([1]))
        cache.register_future(np.array([1]))
        assert cache.pending_reuse(1) == 1
        cache.access(np.array([1]))
        assert cache.pending_reuse(1) == 0
        cache.check_invariants()

    def test_unpinned_after_counter_reaches_zero(self):
        cache = GPUSoftwareCache(1, seed=0)
        cache.access(np.array([1]))
        cache.register_future(np.array([1]))
        cache.access(np.array([1]))  # counter back to zero -> evictable
        cache.access(np.array([2]))  # should evict page 1 now
        assert 1 not in cache
        assert 2 in cache

    def test_pending_pins_on_admission(self):
        """A page registered before it is resident pins when admitted."""
        cache = GPUSoftwareCache(1, seed=0)
        cache.register_future(np.array([5, 5]))
        cache.access(np.array([5]))  # admit; one unit consumed, one left
        assert cache.pending_reuse(5) == 1
        cache.access(np.array([9]))  # 5 is pinned -> 9 bypasses
        assert 5 in cache
        assert cache.stats.bypasses == 1
        cache.check_invariants()

    def test_all_pinned_bypasses_misses(self):
        cache = GPUSoftwareCache(2, seed=0)
        cache.register_future(np.array([1, 2, 1, 2]))
        cache.access(np.array([1, 2]))
        hits = cache.access(np.array([3]))
        assert not hits.any()
        assert 3 not in cache
        assert cache.stats.bypasses == 1

    def test_forget_future_unpins(self):
        cache = GPUSoftwareCache(1, seed=0)
        cache.access(np.array([1]))
        cache.register_future(np.array([1]))
        cache.forget_future(np.array([1]))
        cache.access(np.array([2]))  # 1 evictable again
        assert 2 in cache
        cache.check_invariants()

    def test_forget_future_nonresident(self):
        cache = GPUSoftwareCache(1, seed=0)
        cache.register_future(np.array([7]))
        cache.forget_future(np.array([7]))
        assert cache.pending_reuse(7) == 0
        cache.check_invariants()

    def test_num_pinned(self):
        cache = GPUSoftwareCache(4, seed=0)
        cache.access(np.array([1, 2, 3]))
        cache.register_future(np.array([1, 2]))
        assert cache.num_pinned == 2


class TestLRUPolicy:
    def test_lru_evicts_least_recent(self):
        cache = GPUSoftwareCache(2, policy="lru", seed=0)
        cache.access(np.array([1, 2]))
        cache.access(np.array([1]))  # refresh 1
        cache.access(np.array([3]))  # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_lru_respects_pinning(self):
        cache = GPUSoftwareCache(2, policy="lru", seed=0)
        cache.access(np.array([1, 2]))
        cache.register_future(np.array([1]))
        cache.access(np.array([3]))  # must evict 2, not pinned 1
        assert 1 in cache and 3 in cache
        cache.check_invariants()


class TestWarm:
    def test_warm_does_not_touch_stats(self):
        cache = GPUSoftwareCache(4, seed=0)
        cache.warm(np.array([1, 2, 3]))
        assert cache.stats.misses == 0
        assert cache.access(np.array([1])).all()
