"""Differential test: the array-backed GPU cache against its per-page oracle.

``tests/oracles/gpu_cache_reference.py`` is the dict-backed implementation
the class replaced: one lookup per page, one scalar RNG draw per eviction.
The state machine below drives both with the same calls — every public
mutator, snapshot round-trips, the pre-array snapshot layout — and after
every step requires equal hit masks, statistics, residency, pin and pending
counts, evictable order, eviction order (the ``cache.evict`` instants a
request-detail tracer sees) and eviction RNG state.

Tier 1 runs the default Hypothesis profile; CI's ``regression-gate`` job
runs ``--hypothesis-profile=differential --hypothesis-seed=0`` (500
examples of 50 steps).
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import GIDSDataLoader, LoaderConfig, SystemConfig, Tracer
from repro.cache.gpu_cache import GPUSoftwareCache
from repro.errors import CheckpointError, ConfigError
from repro.telemetry.tracer import Instant, Span
from tests.oracles.gpu_cache_reference import ReferenceGPUSoftwareCache

MAX_PAGE = 300


@st.composite
def page_batches(draw):
    """Page ids: short and fully shrinkable, or long enough for a run."""
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, MAX_PAGE - 1), max_size=10))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        raw = rng.integers(0, MAX_PAGE, draw(st.integers(32, 150))).tolist()
    shape = draw(st.sampled_from(["sorted", "shuffled", "repeats"]))
    if shape == "sorted":
        raw = sorted(set(raw))
    elif shape == "shuffled":
        raw = list(dict.fromkeys(raw))
    return raw


def evictable_order(cache) -> list[int]:
    if cache.policy == "random":
        return list(cache._evictable_list)
    return list(cache._lru)


def eviction_log(cache) -> list[tuple[str, int]]:
    return [(i.name, i.args["page"]) for i in cache.tracer.instants]


def parent_layout(state: dict) -> dict:
    """A compact cache snapshot rewritten the way PRs 2-11 wrote it."""
    random = state["policy"] == "random"
    order = state["evictable"].tolist()
    return {
        "policy": state["policy"],
        "capacity_lines": state["capacity_lines"],
        "rng": state["rng"],
        "stats": state["stats"],
        "reuse": dict(
            zip(
                state["resident_pages"].tolist(),
                state["resident_counts"].tolist(),
            )
        ),
        "pending": dict(
            zip(
                state["pending_pages"].tolist(),
                state["pending_counts"].tolist(),
            )
        ),
        "evictable": order if random else [],
        "lru": [] if random else order,
    }


class CacheDifferential(RuleBasedStateMachine):
    @initialize(
        capacity=st.sampled_from([0, 1, 3, 8, 50, 400]),
        policy=st.sampled_from(["random", "random", "lru"]),
        universe=st.sampled_from([6, 40, MAX_PAGE]),
        seed=st.integers(0, 2**16),
    )
    def build(self, capacity, policy, universe, seed):
        self.universe = universe
        self.cache = GPUSoftwareCache(capacity, policy=policy, seed=seed)
        self.oracle = ReferenceGPUSoftwareCache(
            capacity, policy=policy, seed=seed
        )
        self.cache.tracer = Tracer(detail="request")
        self.oracle.tracer = Tracer(detail="request")
        #: registered-but-not-yet-served batches, as a window buffer holds
        self.window: deque[np.ndarray] = deque()

    def _pages(self, raw) -> np.ndarray:
        return np.array(raw, dtype=np.int64) % self.universe

    def _access(self, pages):
        got = self.cache.access(pages)
        want = self.oracle.access(pages)
        assert got.dtype == bool and got.tolist() == want.tolist()

    @rule(raw=page_batches())
    def access_unregistered(self, raw):
        """Window depth 0: nothing is pinned on behalf of these pages."""
        self._access(self._pages(raw))

    @rule(raw=page_batches())
    def push(self, raw):
        pages = self._pages(raw)
        self.cache.register_future(pages)
        self.oracle.register_future(pages)
        self.window.append(pages)

    @rule()
    def pop_and_access(self):
        """The loader's pairing; with capacity << batch every line pins."""
        if self.window:
            self._access(self.window.popleft())

    @rule()
    def drain_one(self):
        if self.window:
            pages = self.window.pop()
            self.cache.forget_future(pages)
            self.oracle.forget_future(pages)

    @rule(raw=page_batches())
    def forget_unregistered(self, raw):
        pages = self._pages(raw)
        self.cache.forget_future(pages)
        self.oracle.forget_future(pages)

    @rule(raw=page_batches())
    def invalidate(self, raw):
        pages = self._pages(raw)
        assert self.cache.invalidate(pages) == self.oracle.invalidate(pages)

    @rule(raw=page_batches())
    def warm(self, raw):
        pages = self._pages(raw)
        self.cache.warm(pages)
        self.oracle.warm(pages)

    @rule(layout=st.sampled_from(["compact", "parent", "oracle"]))
    def snapshot_round_trip(self, layout):
        state = self.cache.state_dict()
        if layout == "parent":
            state = parent_layout(state)
        elif layout == "oracle":
            state = self.oracle.state_dict()
        fresh = GPUSoftwareCache(
            self.cache.capacity_lines, policy=self.cache.policy, seed=12345
        )
        fresh.tracer = self.cache.tracer
        fresh.load_state_dict(state)
        self.cache = fresh

    @invariant()
    def same_observable_state(self):
        cache, oracle = self.cache, self.oracle
        assert cache.stats == oracle.stats
        assert len(cache) == len(oracle)
        assert cache.num_pinned == oracle.num_pinned
        assert cache.num_pending == len(oracle._pending)
        assert evictable_order(cache) == evictable_order(oracle)
        assert eviction_log(cache) == eviction_log(oracle)
        assert (
            cache._rng.bit_generator.state == oracle._rng.bit_generator.state
        )
        state = cache.state_dict()
        assert oracle._reuse == dict(
            zip(
                state["resident_pages"].tolist(),
                state["resident_counts"].tolist(),
            )
        )
        for page in range(0, self.universe, 7):
            assert (page in cache) == (page in oracle)
            assert cache.pending_reuse(page) == oracle.pending_reuse(page)
        cache.check_invariants()
        oracle.check_invariants()


CacheDifferential.TestCase.settings = settings(
    stateful_step_count=50, deadline=None
)
TestCacheDifferential = CacheDifferential.TestCase


class TestSnapshotLayouts:
    def _busy_cache(self, policy="random"):
        cache = GPUSoftwareCache(40, policy=policy, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(2):
            cache.register_future(np.unique(rng.integers(0, 200, 20)))
        for _ in range(4):
            cache.access(np.unique(rng.integers(0, 200, 60)))
        assert 0 < cache.num_pinned < len(cache) and cache.num_pending
        return cache

    @pytest.mark.parametrize("policy", ["random", "lru"])
    def test_snapshot_is_compact_arrays(self, policy):
        state = self._busy_cache(policy).state_dict()
        for key in (
            "resident_pages", "resident_counts",
            "pending_pages", "pending_counts", "evictable",
        ):
            assert isinstance(state[key], np.ndarray), key
        assert len(state["resident_pages"]) == len(state["resident_counts"])
        assert "reuse" not in state and "lru" not in state

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s.update(resident_counts=s["resident_counts"][:-1]),
            lambda s: s.update(pending_pages=s["pending_pages"][1:]),
            lambda s: s.update(
                evictable=np.append(s["evictable"], s["pending_pages"][0])
            ),
            lambda s: s.update(evictable=np.append(s["evictable"], 10**6)),
            lambda s: s.update(evictable=s["evictable"][:-1]),
            lambda s: s.update(
                evictable=np.append(s["evictable"], s["evictable"][0])
            ),
            lambda s: s.update(resident_pages=-s["resident_pages"] - 1),
            lambda s: s.update(resident_pages=s["resident_pages"] * 2**40),
            lambda s: s.update(
                resident_counts=s["resident_counts"].astype(float) + 0.5
            ),
            lambda s: s.update(
                pending_counts=s["pending_counts"].reshape(-1, 1)
            ),
            lambda s: s.update(
                pending_pages=np.append(
                    s["pending_pages"][1:], s["resident_pages"][0]
                )
            ),
            lambda s: s.update(evictable=["a"]),
        ],
    )
    def test_malformed_snapshot_is_a_checkpoint_error(self, corrupt):
        cache = self._busy_cache()
        state = cache.state_dict()
        corrupt(state)
        with pytest.raises(CheckpointError):
            GPUSoftwareCache(40, seed=0).load_state_dict(state)

    def test_page_ids_must_fit_the_tables(self):
        cache = GPUSoftwareCache(4, seed=0)
        for bad in ([-1], [3, 2**31], [2**40]):
            with pytest.raises(ConfigError):
                cache.access(np.array(bad))
            with pytest.raises(ConfigError):
                cache.register_future(np.array(bad))
        assert len(cache) == 0


class TestParentCommitCheckpoint:
    """A checkpoint in the layout the parent commit wrote (dict-backed cache
    block, one dict per trace event) resumes to the uninterrupted result."""

    def _loader(self, dataset, tracer):
        return GIDSDataLoader(
            dataset,
            SystemConfig(cpu_memory_limit_bytes=dataset.total_bytes * 0.5),
            LoaderConfig(
                gpu_cache_bytes=dataset.feature_data_bytes * 0.03,
                cpu_buffer_fraction=0.10,
                window_depth=4,
            ),
            batch_size=64,
            fanouts=(5, 5),
            seed=4,
            tracer=tracer,
        )

    @staticmethod
    def _step(loader, n):
        metrics = []
        while len(metrics) < n:
            group = loader.next_training_group(n - len(metrics))
            metrics += [m for _, m in group]
        return [m.state_dict() for m in metrics]

    def test_resume_is_bit_identical(self, small_dataset):
        straight_tracer = Tracer(detail="request")
        straight = self._loader(small_dataset, straight_tracer)
        self._step(straight, 6)
        state = straight.state_dict()
        expected = self._step(straight, 10)

        state["cache"] = parent_layout(state["cache"])
        trace = state["tracer"]
        trace["spans"] = [Span(*row).to_dict() for row in trace["spans"]]
        trace["instants"] = [
            Instant(*row).to_dict() for row in trace["instants"]
        ]
        resumed_tracer = Tracer(detail="request")
        resumed = self._loader(small_dataset, resumed_tracer)
        resumed.load_state_dict(state)
        assert repr(self._step(resumed, 10)) == repr(expected)
        assert resumed_tracer.spans == straight_tracer.spans
        assert resumed_tracer.instants == straight_tracer.instants
        assert (
            resumed.cache._rng.bit_generator.state
            == straight.cache._rng.bit_generator.state
        )
