"""Unit tests for the BaM-style GPU software cache with pinning."""

from itertools import combinations

import numpy as np
import pytest

from repro.cache import gpu_cache
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
        """Page 1 is a candidate again: the miss on 2 evicts (no bypass),
        drawn over [1, 2], and at some seeds the victim is 1."""
        survivors = set()
        for seed in range(8):
            cache = GPUSoftwareCache(1, seed=seed)
            cache.access(np.array([1]))
            cache.register_future(np.array([1]))
            cache.access(np.array([1]))  # counter back to zero -> evictable
            assert cache.state_dict()["evictable"].tolist() == [1]
            cache.access(np.array([2]))
            assert cache.stats.evictions == 1 and not cache.stats.bypasses
            survivors.add(1 in cache)
        assert survivors == {True, False}

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
        assert cache.state_dict()["evictable"].tolist() == [1]
        cache.access(np.array([2]))  # 1 evictable again: evict, not bypass
        assert cache.stats.evictions == 1 and not cache.stats.bypasses
        assert len(cache) == 1
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

    def test_pin_leaves_the_evictable_order_in_place(self):
        """Pinning b out of [a, b, c, d] leaves [a, c, d] (no swap of d
        into b's slot), so a draw of index 1 over [a, c, d, e] evicts c."""
        seed = 1
        draw = np.random.default_rng(seed).choice(
            4, size=1, replace=False, shuffle=False
        )
        assert draw.tolist() == [1]
        cache = GPUSoftwareCache(4, seed=seed)
        cache.access(np.array([10, 11, 12, 13]))
        cache.register_future(np.array([11]))
        assert cache.state_dict()["evictable"].tolist() == [10, 12, 13]
        cache.access(np.array([14]))
        assert 12 not in cache
        assert all(page in cache for page in (10, 11, 13, 14))
        cache.check_invariants()


class TestBatchDraw:
    """A batch's victims are one uniform draw of distinct lines over the
    lines evictable at entry, then the lines the batch releases."""

    def test_victims_are_uniform_over_k_subsets(self):
        """C = 6 candidates (four entry lines, two admitted misses), E = 2
        evictions: every one of the 15 pairs is equally likely."""
        rng = np.random.default_rng(0)
        candidates = [0, 1, 2, 3, 10, 11]
        pairs = {pair: 0 for pair in combinations(candidates, 2)}
        trials = 3000
        for _ in range(trials):
            cache = GPUSoftwareCache(4, seed=rng)
            cache.access(np.array([0, 1, 2, 3]))
            cache.access(np.array([10, 11]))
            assert cache.stats.evictions == 2
            pairs[tuple(p for p in candidates if p not in cache)] += 1
        expected = trials / len(pairs)
        chi2 = sum((n - expected) ** 2 / expected for n in pairs.values())
        # 14 degrees of freedom: P(chi2 > 36.12) = 0.001.
        assert chi2 < 36.12, pairs

    @pytest.mark.parametrize("run_min", [64, 0], ids=["walk", "array"])
    def test_a_line_hit_then_evicted_counts_as_a_hit(self, monkeypatch, run_min):
        """Lines 1 and 2 are unpinned; the batch [1, 3] hits 1 and evicts
        one of [1, 2, 3].  At seed 11 the draw is index 0: line 1 is served,
        then evicted."""
        monkeypatch.setattr(gpu_cache, "_RUN_MIN", run_min)
        seed = 11
        draw = np.random.default_rng(seed).choice(
            3, size=1, replace=False, shuffle=False
        )
        assert draw.tolist() == [0]
        cache = GPUSoftwareCache(2, seed=seed)
        cache.access(np.array([1, 2]))
        assert cache.access(np.array([1, 3])).tolist() == [True, False]
        assert cache.stats.hits == 1 and cache.stats.evictions == 1
        assert 1 not in cache and 2 in cache and 3 in cache
        cache.check_invariants()


    @pytest.mark.parametrize("run_min", [64, 0], ids=["walk", "array"])
    def test_pinned_admissions_use_up_the_unpinned_lines(
        self, monkeypatch, run_min
    ):
        """One unpinned line (3) behind three pinned ones: the first full
        miss, admitted pinned, evicts 3; the second finds no unpinned line
        and streams through, though the order buffer still spans 4 slots."""
        monkeypatch.setattr(gpu_cache, "_RUN_MIN", run_min)
        cache = GPUSoftwareCache(4, seed=0)
        cache.access(np.array([0, 1, 2, 3]))
        cache.register_future(np.array([0, 1, 2]))
        for _ in range(2):
            cache.register_future(np.array([10, 11]))
        assert cache.access(np.array([10, 11])).tolist() == [False, False]
        assert cache.stats.evictions == 1 and cache.stats.bypasses == 1
        assert 3 not in cache and 10 in cache and 11 not in cache
        assert cache.pending_reuse(10) == cache.pending_reuse(11) == 1
        cache.check_invariants()


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
