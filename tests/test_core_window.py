"""Unit tests for the window buffer."""

import numpy as np
import pytest

from repro.cache.gpu_cache import GPUSoftwareCache
from repro.core.window import WindowBuffer
from repro.errors import ConfigError
from repro.sampling.minibatch import MiniBatch


def make_batch(seed_id=0):
    return MiniBatch(
        seeds=np.array([seed_id]),
        layers=(),
        input_nodes=np.array([seed_id]),
        num_sampled=1,
    )


class TestWindowBuffer:
    def test_push_registers_future(self):
        cache = GPUSoftwareCache(8, seed=0)
        window = WindowBuffer(cache, depth=2)
        window.push(make_batch(), np.array([10, 11]))
        assert cache.pending_reuse(10) == 1
        assert cache.pending_reuse(11) == 1

    def test_depth_zero_skips_registration(self):
        cache = GPUSoftwareCache(8, seed=0)
        window = WindowBuffer(cache, depth=0)
        window.push(make_batch(), np.array([10]))
        assert cache.pending_reuse(10) == 0

    def test_fifo_order(self):
        cache = GPUSoftwareCache(8, seed=0)
        window = WindowBuffer(cache, depth=3)
        for i in range(3):
            window.push(make_batch(i), np.array([i]))
        assert window.pop().batch.seeds[0] == 0
        assert window.pop().batch.seeds[0] == 1

    def test_pop_empty_raises(self):
        window = WindowBuffer(GPUSoftwareCache(4, seed=0), depth=1)
        with pytest.raises(ConfigError):
            window.pop()

    def test_payload_round_trip(self):
        window = WindowBuffer(GPUSoftwareCache(4, seed=0), depth=1)
        window.push(make_batch(), np.array([1]), payload=("x", 42))
        assert window.pop().payload == ("x", 42)

    def test_register_access_balance(self):
        """Every registered unit is consumed by exactly one access."""
        cache = GPUSoftwareCache(16, seed=0)
        window = WindowBuffer(cache, depth=4)
        pages = [np.array([1, 2]), np.array([2, 3]), np.array([1, 3])]
        for i, p in enumerate(pages):
            window.push(make_batch(i), p)
        for _ in pages:
            entry = window.pop()
            cache.access(entry.pages)
        for page in (1, 2, 3):
            assert cache.pending_reuse(page) == 0
        cache.check_invariants()

    def test_drain_forgets_registrations(self):
        cache = GPUSoftwareCache(16, seed=0)
        window = WindowBuffer(cache, depth=4)
        window.push(make_batch(0), np.array([1, 2]))
        window.push(make_batch(1), np.array([1]))
        window.drain()
        assert len(window) == 0
        assert cache.pending_reuse(1) == 0
        assert cache.pending_reuse(2) == 0
        cache.check_invariants()

    def test_is_full(self):
        window = WindowBuffer(GPUSoftwareCache(4, seed=0), depth=2)
        window.push(make_batch(0), np.array([1]))
        assert len(window) < window.depth
        window.push(make_batch(1), np.array([2]))
        assert len(window) == window.depth

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            WindowBuffer(GPUSoftwareCache(4, seed=0), depth=-1)
