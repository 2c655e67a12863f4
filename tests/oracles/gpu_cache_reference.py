"""Reference oracle: the dict-backed GPU software cache (PRs 0-11).

This is the implementation ``repro.cache.gpu_cache`` shipped before it moved
its state to arrays, kept as the *specification* the array-backed class is
checked against: per page, one dict lookup, one scalar ``Generator.integers``
draw per eviction.  One rule differs from that implementation: a line that
a pin or an invalidation takes out of the random policy's evictable order
leaves a hole, so the other lines keep their order, and holes are closed,
order kept, before the next draw.  An eviction swaps the last line into the
victim's slot.  ``tests/test_cache_gpu_differential.py`` and
``benchmarks/bench_gpu_cache.py`` drive both with the same calls and require
equal hit masks, statistics, eviction order and RNG state.

Test-only: nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import CacheStats
from repro.errors import CheckpointError, ConfigError
from repro.utils import as_rng

#: Supported eviction policies for the unpinned population.
_POLICIES = ("random", "lru")


class ReferenceGPUSoftwareCache:
    """A fully associative page cache with pinning and random/LRU eviction.

    Args:
        capacity_lines: resident page capacity (0 disables caching).
        policy: ``"random"`` (BaM default) or ``"lru"`` (ablation arm).
        seed: RNG for random eviction.
    """

    def __init__(
        self,
        capacity_lines: int,
        *,
        policy: str = "random",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if capacity_lines < 0:
            raise ConfigError("capacity must be non-negative")
        if policy not in _POLICIES:
            raise ConfigError(
                f"unknown eviction policy {policy!r}; expected one of {_POLICIES}"
            )
        self.capacity_lines = capacity_lines
        self.policy = policy
        self._rng = as_rng(seed)
        self.stats = CacheStats()
        #: Optional telemetry tracer (attached by the owning loader, never
        #: checkpointed here — the loader snapshots it).  Only consulted at
        #: request detail, so untraced caches pay one ``is None`` check per
        #: eviction.
        self.tracer = None

        # page -> future reuse counter, resident pages only.
        self._reuse: dict[int, int] = {}
        # Pages not resident but already known to be reused soon.
        self._pending: dict[int, int] = {}
        # Evictable (reuse == 0) resident pages.  For "random": list with
        # ``None`` holes + position map; for "lru": insertion-ordered dict
        # (Python dicts preserve order; re-inserting refreshes recency).
        self._evictable_list: list[int | None] = []
        self._evictable_pos: dict[int, int] = {}
        self._holes = 0
        self._lru: dict[int, None] = {}

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._reuse)

    def __contains__(self, page: int) -> bool:
        return page in self._reuse

    @property
    def num_pinned(self) -> int:
        """Resident lines currently in the "USE" state."""
        return len(self._reuse) - self._num_evictable

    @property
    def _num_evictable(self) -> int:
        if self.policy == "random":
            return len(self._evictable_list) - self._holes
        return len(self._lru)

    def pending_reuse(self, page: int) -> int:
        """Outstanding future-reuse count for ``page`` (resident or not)."""
        if page in self._reuse:
            return self._reuse[page]
        return self._pending.get(page, 0)

    # ------------------------------------------------------------------
    # Evictable-set maintenance

    def _mark_evictable(self, page: int) -> None:
        if self.policy == "random":
            self._evictable_pos[page] = len(self._evictable_list)
            self._evictable_list.append(page)
        else:
            self._lru[page] = None

    def _unmark_evictable(self, page: int) -> None:
        """A pin or invalidation: the other lines keep their order."""
        if self.policy == "random":
            self._evictable_list[self._evictable_pos.pop(page)] = None
            self._holes += 1
        else:
            del self._lru[page]

    def _close_holes(self) -> None:
        if self._holes:
            self._evictable_list = [
                page for page in self._evictable_list if page is not None
            ]
            self._evictable_pos = {
                page: pos for pos, page in enumerate(self._evictable_list)
            }
            self._holes = 0

    def _touch(self, page: int) -> None:
        """Refresh recency for LRU; no-op under random eviction."""
        if self.policy == "lru" and page in self._lru:
            del self._lru[page]
            self._lru[page] = None

    def _pick_victim(self) -> int | None:
        if self.policy == "random":
            self._close_holes()
            if not self._evictable_list:
                return None
            idx = int(self._rng.integers(len(self._evictable_list)))
            return self._evictable_list[idx]
        if not self._lru:
            return None
        return next(iter(self._lru))

    def _evict(self, page: int) -> None:
        if self.policy == "random":
            # Swap-remove: the last line fills the victim's slot.
            pos = self._evictable_pos.pop(page)
            last = self._evictable_list.pop()
            if last != page:
                self._evictable_list[pos] = last
                self._evictable_pos[last] = pos
        else:
            del self._lru[page]
        del self._reuse[page]
        self.stats.evictions += 1
        tracer = self.tracer
        if tracer is not None and tracer.want_request_detail:
            tracer.instant("cache.evict", "gpu.cache", page=page)

    # ------------------------------------------------------------------
    # Window-buffer interface

    def register_future(self, pages: np.ndarray) -> None:
        """Record one upcoming use of each page in ``pages``.

        Called by the window buffer when a freshly sampled iteration enters
        the look-ahead window.  Resident pages move to (or stay in) the
        "USE" state; non-resident pages remember the count so they pin on
        admission.
        """
        reuse = self._reuse
        pending = self._pending
        for page in pages:
            page = int(page)
            if page in reuse:
                if reuse[page] == 0:
                    self._unmark_evictable(page)
                reuse[page] += 1
            else:
                pending[page] = pending.get(page, 0) + 1

    def forget_future(self, pages: np.ndarray) -> None:
        """Reverse :meth:`register_future` for pages that will not be used.

        Needed when a window entry is dropped unconsumed (end of epoch).
        """
        reuse = self._reuse
        pending = self._pending
        for page in pages:
            page = int(page)
            if page in reuse:
                if reuse[page] > 0:
                    reuse[page] -= 1
                    if reuse[page] == 0:
                        self._mark_evictable(page)
            elif page in pending:
                if pending[page] <= 1:
                    del pending[page]
                else:
                    pending[page] -= 1

    # ------------------------------------------------------------------
    # Access path

    def access(self, pages: np.ndarray) -> np.ndarray:
        """Look up ``pages``; admit misses; return a boolean hit mask.

        Every access consumes one unit of the page's future-reuse counter
        (the unit registered when this iteration entered the window); a line
        whose counter reaches zero returns to the evictable population.
        Misses evict a victim chosen by the configured policy among
        *unpinned* lines; if every line is pinned the miss is streamed
        through without admission (counted as a bypass).
        """
        pages = np.asarray(pages, dtype=np.int64)
        hit_mask = np.zeros(len(pages), dtype=bool)
        if self.capacity_lines == 0:
            self.stats.misses += len(pages)
            self.stats.bypasses += len(pages)
            # Streamed pages still consume their registered reuse unit.
            for page in pages:
                self._consume_pending(int(page))
            return hit_mask

        reuse = self._reuse
        for i, page in enumerate(pages):
            page = int(page)
            if page in reuse:
                hit_mask[i] = True
                self.stats.hits += 1
                count = reuse[page]
                if count > 0:
                    reuse[page] = count - 1
                    if count == 1:
                        self._mark_evictable(page)
                self._touch(page)
            else:
                self.stats.misses += 1
                self._admit(page)
        return hit_mask

    def _consume_pending(self, page: int) -> None:
        pending = self._pending
        if page in pending:
            if pending[page] <= 1:
                del pending[page]
            else:
                pending[page] -= 1

    def _admit(self, page: int) -> None:
        """Insert ``page`` after a miss, evicting if necessary."""
        count = self._pending.pop(page, 0)
        if count > 0:
            count -= 1  # The current access consumes one registered unit.
        if len(self._reuse) >= self.capacity_lines:
            victim = self._pick_victim()
            if victim is None:
                # Every line pinned: stream the page without caching.
                self.stats.bypasses += 1
                if count > 0:
                    self._pending[page] = count
                return
            self._evict(victim)
        self._reuse[page] = count
        if count == 0:
            self._mark_evictable(page)

    def invalidate(self, pages: np.ndarray) -> int:
        """Drop resident lines whose bytes are no longer trusted.

        The integrity layer calls this when verification condemns a page
        *after* :meth:`access` admitted it: a quarantined page must not be
        served from the cache.  Outstanding future-reuse counts move back
        to the pending table so the window buffer's bookkeeping stays
        balanced — when the page is re-requested it simply misses again.
        Returns the number of lines actually dropped.  Not a policy
        eviction: the eviction counter and RNG are untouched.
        """
        dropped = 0
        for page in pages:
            page = int(page)
            if page not in self._reuse:
                continue
            count = self._reuse.pop(page)
            if count == 0:
                self._unmark_evictable(page)
            else:
                self._pending[page] = self._pending.get(page, 0) + count
            dropped += 1
            tracer = self.tracer
            if tracer is not None and tracer.want_request_detail:
                tracer.instant("cache.invalidate", "gpu.cache", page=page)
        return dropped

    # ------------------------------------------------------------------

    def warm(self, pages: np.ndarray) -> None:
        """Pre-populate the cache without touching statistics."""
        saved = CacheStats(
            hits=self.stats.hits,
            misses=self.stats.misses,
            evictions=self.stats.evictions,
            bypasses=self.stats.bypasses,
        )
        self.access(pages)
        self.stats = saved

    def state_dict(self) -> dict:
        """Full snapshot: residency, pinning, eviction order, RNG, stats.

        Captures everything needed for a resumed run to make bit-identical
        eviction decisions: the reuse/pending counters, the evictable
        population in its exact order (which the random policy indexes into
        and the LRU policy reads recency from), and the eviction RNG state.
        """
        return {
            "policy": self.policy,
            "capacity_lines": self.capacity_lines,
            "rng": self._rng.bit_generator.state,
            "stats": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "bypasses": self.stats.bypasses,
            },
            "reuse": dict(self._reuse),
            "pending": dict(self._pending),
            "evictable": [
                page for page in self._evictable_list if page is not None
            ],
            "lru": list(self._lru),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`."""
        if state.get("policy") != self.policy:
            raise CheckpointError(
                f"checkpoint eviction policy {state.get('policy')!r} does "
                f"not match cache policy {self.policy!r}"
            )
        if state.get("capacity_lines") != self.capacity_lines:
            raise CheckpointError(
                f"checkpoint cache capacity {state.get('capacity_lines')} "
                f"does not match configured {self.capacity_lines}"
            )
        self._rng.bit_generator.state = state["rng"]
        stats = state["stats"]
        self.stats = CacheStats(
            hits=int(stats["hits"]),
            misses=int(stats["misses"]),
            evictions=int(stats["evictions"]),
            bypasses=int(stats["bypasses"]),
        )
        self._reuse = {int(k): int(v) for k, v in state["reuse"].items()}
        self._pending = {int(k): int(v) for k, v in state["pending"].items()}
        self._evictable_list = [int(p) for p in state["evictable"]]
        self._evictable_pos = {
            page: pos for pos, page in enumerate(self._evictable_list)
        }
        self._holes = 0
        self._lru = {int(p): None for p in state["lru"]}
        self.check_invariants()

    def check_invariants(self) -> None:
        """Raise if internal bookkeeping is inconsistent (used by tests)."""
        if len(self._reuse) > self.capacity_lines:
            raise AssertionError("resident lines exceed capacity")
        evictable = (
            set(self._evictable_pos)
            if self.policy == "random"
            else set(self._lru)
        )
        for page in evictable:
            if page not in self._reuse:
                raise AssertionError(f"evictable page {page} not resident")
            if self._reuse[page] != 0:
                raise AssertionError(f"evictable page {page} is pinned")
        for page, count in self._reuse.items():
            if count < 0:
                raise AssertionError(f"negative reuse counter on {page}")
            if count == 0 and page not in evictable:
                raise AssertionError(f"unpinned page {page} not evictable")
        for page, count in self._pending.items():
            if count <= 0:
                raise AssertionError(f"non-positive pending count on {page}")
            if page in self._reuse:
                raise AssertionError(f"pending entry for resident page {page}")
        if self.policy == "random":
            if self._num_evictable != len(self._evictable_pos):
                raise AssertionError("evictable list/pos size mismatch")
            for page, pos in self._evictable_pos.items():
                if self._evictable_list[pos] != page:
                    raise AssertionError("evictable position map corrupted")
