"""BaM-style GPU software-defined cache with pinnable lines.

The cache stores feature pages in GPU memory and, unlike a hardware cache,
exposes its eviction machinery to the application (Section 3.4).  Two pieces
of state implement GIDS's window buffering:

* a *future-reuse counter* per resident line — while positive, the line is in
  the "USE" state and cannot be evicted; each access decrements it and the
  line returns to "Safe to Evict" at zero;
* a side table of future-reuse counts for pages that are *not yet* resident,
  so a line admitted on miss starts out pinned if the window buffer already
  knows it will be reused.

With no registered future reuse the cache degenerates to plain BaM behavior:
random eviction over all resident lines (the Fig. 11 depth-0 baseline).

Both tables are ``int32`` arrays indexed by page id (``-1`` in the reuse
table = not resident), grown by doubling to the largest page id seen — about
8 bytes per page of the feature table.  A call is served a *run* of pages at
a time: one fancy-index classifies the run against the state at entry, one
cumulative sum gives the size of the evictable population every miss will
see, one ``Generator.integers`` call draws every victim's index (it consumes
the bit stream exactly like the scalar draws it stands for —
``tests/test_utils.py`` pins that), and only the swap-remove/append walk over
the evictable list stays per page.  Decisions are those of the per-page
definition (``tests/oracles/gpu_cache_reference.py``) bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import CheckpointError, ConfigError
from ..state import Stateful, child, custom, guard, rng_state
from ..telemetry.tracer import ensure_tracer
from ..utils import as_rng
from .base import CacheStats

#: Supported eviction policies for the unpinned population.
_POLICIES = ("random", "lru")

#: Calls (or stretches between two run ends) shorter than this are walked
#: page by page: a run costs 20-60 us of NumPy set-up whatever its length.
#: Measured by cutting the three recorded streams of
#: ``benchmarks/bench_gpu_cache.py`` into calls of k pages: the run overtakes
#: the walk at k = 24 (all hits), 28 (88% misses) and 100 (every line
#: pinned); at 64 it is 1.8x, 1.9x and 0.7x the walk's speed.  Serving sends
#: about 7 pages per call.
_RUN_MIN = 64

#: What a page of a run does to the evictable list (bit flags).
_EVICTS, _APPENDS = 1, 2

#: Page ids index arrays, so they are bounded; 2**31 ids is 16 GiB of state.
_MAX_PAGE_ID = 2**31 - 1


def _repeat_free_prefix(pages: np.ndarray) -> int:
    """Length of the longest prefix of ``pages`` that names no page twice."""
    if len(pages) < 2 or (pages[1:] > pages[:-1]).all():
        return len(pages)
    order = np.argsort(pages, kind="stable")
    ranked = pages[order]
    again = ranked[1:] == ranked[:-1]
    if not again.any():
        return len(pages)
    return int(order[1:][again].min())


class GPUSoftwareCache(Stateful):
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
                f"unknown eviction policy {policy!r}; "
                f"expected one of {_POLICIES}"
            )
        self.capacity_lines = capacity_lines
        self.policy = policy
        self._rng = as_rng(seed)
        self.stats = CacheStats()
        #: Telemetry tracer (the owning loader attaches its own; never
        #: checkpointed here — the loader snapshots it).  Only consulted at
        #: request detail, so untraced caches pay one attribute test per
        #: run of pages.
        self.tracer = ensure_tracer()

        # Future-reuse counter per page id; -1 = not resident.
        self._reuse = np.full(0, -1, dtype=np.int32)
        # Registered reuse of pages that are not resident; 0 = none.
        self._pending = np.zeros(0, dtype=np.int32)
        self._num_resident = 0
        # Evictable (reuse == 0) resident pages in their exact order.  For
        # "random": list + position map for O(1) swap-remove; for "lru":
        # insertion-ordered dict (re-inserting refreshes recency).
        self._evictable_list: list[int] = []
        self._evictable_pos: dict[int, int] = {}
        self._lru: dict[int, None] = {}

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return self._num_resident

    def __contains__(self, page: int) -> bool:
        return 0 <= page < len(self._reuse) and self._reuse[page] >= 0

    def resident_mask(self, pages: np.ndarray) -> np.ndarray:
        """``[page in self for page in pages]`` as one bool array."""
        pages = np.asarray(pages, dtype=np.int64)
        # Read as unsigned a negative id is huge: one test bounds both ends.
        found = pages.view(np.uint64) < len(self._reuse)
        found[found] = self._reuse[pages[found]] >= 0
        return found

    @property
    def num_pinned(self) -> int:
        """Resident lines currently in the "USE" state."""
        return self._num_resident - self._num_evictable

    @property
    def num_pending(self) -> int:
        """Non-resident pages with registered future reuse."""
        return int(np.count_nonzero(self._pending))

    @property
    def _evictable(self) -> list[int] | dict[int, None]:
        """The unpinned lines, in the order the policy reads them."""
        return self._evictable_list if self.policy == "random" else self._lru

    @property
    def _num_evictable(self) -> int:
        return len(self._evictable)

    def pending_reuse(self, page: int) -> int:
        """Outstanding future-reuse count for ``page`` (resident or not)."""
        if not 0 <= page < len(self._reuse):
            return 0
        count = int(self._reuse[page])
        return count if count >= 0 else int(self._pending[page])

    def _page_array(self, pages: np.ndarray) -> np.ndarray:
        """``pages`` as int64 ids the state arrays are large enough for."""
        pages = np.asarray(pages, dtype=np.int64)
        if len(pages):
            # Read as unsigned a negative id is huge: one reduction checks
            # both ends.
            top = int(pages.view(np.uint64).max())
            if top >= len(self._reuse):
                if top > _MAX_PAGE_ID:
                    raise ConfigError(
                        f"page ids must lie in [0, {_MAX_PAGE_ID}]"
                    )
                self._grow(top + 1)
        return pages

    def _grow(self, num_ids: int) -> None:
        old = len(self._reuse)
        size = max(num_ids, 2 * old)
        reuse = np.full(size, -1, dtype=np.int32)
        reuse[:old] = self._reuse
        pending = np.zeros(size, dtype=np.int32)
        pending[:old] = self._pending
        self._reuse = reuse
        self._pending = pending

    # ------------------------------------------------------------------
    # Evictable-set maintenance

    def _mark_evictable(self, page: int) -> None:
        if self.policy == "random":
            self._evictable_pos[page] = len(self._evictable_list)
            self._evictable_list.append(page)
        else:
            self._lru[page] = None

    def _unmark_evictable(self, page: int) -> None:
        if self.policy == "random":
            pos = self._evictable_pos.pop(page)
            last = self._evictable_list.pop()
            if last != page:
                self._evictable_list[pos] = last
                self._evictable_pos[last] = pos
        else:
            del self._lru[page]

    def _pick_victim(self) -> int | None:
        if self.policy == "random":
            if not self._evictable_list:
                return None
            idx = int(self._rng.integers(len(self._evictable_list)))
            return self._evictable_list[idx]
        if not self._lru:
            return None
        return next(iter(self._lru))

    def _trace_instants(self, name: str, pages: Iterable[int]) -> None:
        tracer = self.tracer
        if tracer.want_request_detail:
            for page in pages:
                tracer.instant(name, "gpu.cache", page=page)

    # ------------------------------------------------------------------
    # Window-buffer interface

    def register_future(self, pages: np.ndarray) -> None:
        """Record one upcoming use of each page in ``pages``.

        Called by the window buffer when a freshly sampled iteration enters
        the look-ahead window.  Resident pages move to (or stay in) the
        "USE" state; non-resident pages remember the count so they pin on
        admission.
        """
        pages = self._page_array(pages)
        count = self._reuse[pages]
        resident = count >= 0
        # Registering changes no residency, so the classification at entry
        # holds for the whole call, repeated pages included.
        unpin = pages[count == 0].tolist()
        if _repeat_free_prefix(pages) == len(pages):
            self._reuse[pages] = count + resident
            self._pending[pages] += ~resident
        else:
            np.add.at(self._reuse, pages[resident], 1)
            np.add.at(self._pending, pages[~resident], 1)
            unpin = dict.fromkeys(unpin)
        for page in unpin:
            self._unmark_evictable(page)

    def forget_future(self, pages: np.ndarray) -> None:
        """Reverse :meth:`register_future` for pages that will not be used.

        Needed when a window entry is dropped unconsumed (end of epoch).
        """
        pages = self._page_array(pages)
        reuse = self._reuse
        pending = self._pending
        if _repeat_free_prefix(pages) == len(pages):
            count = reuse[pages]
            reuse[pages] = count - (count > 0)
            # Resident pages hold no pending units, so this only moves the
            # non-resident ones.
            waiting = pending[pages]
            pending[pages] = waiting - (waiting > 0)
            for page in pages[count == 1].tolist():
                self._mark_evictable(page)
            return
        # A repeated page sees what its earlier occurrence left behind.
        for page in pages.tolist():
            count = reuse[page]
            if count > 0:
                reuse[page] = count - 1
                if count == 1:
                    self._mark_evictable(page)
            elif count < 0 and pending[page] > 0:
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
        pages = self._page_array(pages)
        n = len(pages)
        hit_mask = np.zeros(n, dtype=bool)
        if self.capacity_lines == 0:
            self.stats.misses += n
            self.stats.bypasses += n
            # Streamed pages still consume their registered reuse unit.
            ids, times = np.unique(pages, return_counts=True)
            self._pending[ids] = np.maximum(self._pending[ids] - times, 0)
            return hit_mask
        if self.policy == "lru":
            self._access_walk(pages, hit_mask)
            return hit_mask
        lo, span = 0, n
        while lo < n:
            hi = min(n, lo + span)
            if hi - lo < _RUN_MIN:
                self._access_walk(pages[lo:hi], hit_mask[lo:hi])
                served = hi - lo
            else:
                served = self._access_run(pages[lo:hi], hit_mask[lo:hi])
            # A run that ended early is re-classified from where it
            # stopped; looking only twice as far as it got keeps a call
            # with many run ends linear in its length.
            span = 2 * (span if served == hi - lo else served)
            lo += served
        return hit_mask

    def _access_walk(self, pages: np.ndarray, hit_mask: np.ndarray) -> None:
        """Serve ``pages`` one at a time (short batches, the LRU arm)."""
        reuse = self._reuse
        lru = self._lru if self.policy == "lru" else None
        hits = 0
        for i, page in enumerate(pages.tolist()):
            count = reuse[page]
            if count < 0:
                self._admit(page)
                continue
            hit_mask[i] = True
            hits += 1
            if count > 0:
                reuse[page] = count - 1
                if count == 1:
                    self._mark_evictable(page)
            elif lru is not None:
                # Refresh recency of an unpinned line.
                del lru[page]
                lru[page] = None
        self.stats.hits += hits
        self.stats.misses += len(pages) - hits

    def _admit(self, page: int) -> None:
        """Insert ``page`` after a miss, evicting if necessary."""
        count = int(self._pending[page])
        if count > 0:
            count -= 1  # The current access consumes one registered unit.
        if self._num_resident >= self.capacity_lines:
            victim = self._pick_victim()
            if victim is None:
                # Every line pinned: stream the page without caching.
                self.stats.bypasses += 1
                self._pending[page] = count
                return
            self._unmark_evictable(victim)
            self._reuse[victim] = -1
            self._num_resident -= 1
            self.stats.evictions += 1
            self._trace_instants("cache.evict", (victim,))
        self._pending[page] = 0
        self._reuse[page] = count
        self._num_resident += 1
        if count == 0:
            self._mark_evictable(page)

    def _access_run(self, pages: np.ndarray, hit_mask: np.ndarray) -> int:
        """Serve a leading run of ``pages`` (random policy); return its length.

        The run is classified once, against the state at entry.  That stays
        exact up to (a) the first repeated page and (b) the first page this
        run itself evicts before reaching it — an unpinned resident page of
        the same call drawn as a victim, which only happens without window
        pinning.  The run ends there and the caller starts the next one.
        """
        n = _repeat_free_prefix(pages)
        pages = pages[:n]
        reuse = self._reuse
        count = reuse[pages]
        hit = count >= 0
        n_hits = int(np.count_nonzero(hit))
        n_miss = n - n_hits
        free = self.capacity_lines - self._num_resident
        if n_miss <= free:
            # Every miss fills a free line: nothing is evicted, and lines
            # join the evictable list in page order.
            after = np.maximum(count - 1, 0)
            if n_miss:
                after += np.maximum(self._pending[pages] - 1, 0)
                self._pending[pages] = 0
                self._num_resident += n_miss
            reuse[pages] = after
            for page in pages[(after == 0) & (count != 0)].tolist():
                self._mark_evictable(page)
            self.stats.hits += n_hits
            self.stats.misses += n_miss
            hit_mask[:n] = hit
            return n

        miss = ~hit
        # What an admitted miss starts with: its registered units minus the
        # one this access consumes.  Resident pages hold no pending units,
        # so ``carry`` and ``pinned`` are only ever set on a miss.
        carry = np.maximum(self._pending[pages] - 1, 0)
        pinned = carry > 0
        # Misses fill free lines first; once full the cache stays full.
        full = miss & (np.cumsum(miss) > free)
        # The evictable population moves by +1 where a line's last unit is
        # consumed or an unpinned page fills a free line, by -1 where a
        # full-cache miss evicts and admits pinned, and never below zero:
        # a full-cache miss that finds it empty streams through (bypass).
        step = (count == 1).astype(np.int64)
        step += miss & ~(full | pinned)
        step -= full & pinned
        order = self._evictable_list
        # level[i]: evictable lines when page i is reached.
        level = np.cumsum(np.concatenate(([len(order)], step)))
        level -= np.minimum.accumulate(np.minimum(level, 0))
        full_at = np.flatnonzero(full)
        bounds = level[full_at]
        drawing = bounds > 0
        bypass_at = full_at[~drawing]
        evict_at = full_at[drawing]
        bounds = bounds[drawing]

        # Only a page that is unpinned at entry can be evicted before the
        # run reaches it; with window pinning there is none.
        unserved = {}
        exposed = np.flatnonzero(count == 0)
        if len(exposed):
            unserved = dict(zip(pages[exposed].tolist(), exposed.tolist()))
        rng = self._rng
        rewind = rng.bit_generator.state if unserved else None
        slots = rng.integers(0, bounds) if len(bounds) else bounds

        # What each page does to the evictable list, walked in page order.
        kind = ((count == 1) | (miss & ~pinned)) * _APPENDS
        kind[bypass_at] = 0
        kind[evict_at] |= _EVICTS
        events = np.flatnonzero(kind)
        where = self._evictable_pos
        victims: list[int] = []
        draw = iter(slots.tolist())
        end = n
        for at, page, does in zip(
            events.tolist(), pages[events].tolist(), kind[events].tolist()
        ):
            if at >= end:
                break
            if does & _EVICTS:
                slot = next(draw)
                victim = order[slot]
                last = order.pop()
                if last != victim:
                    order[slot] = last
                    where[last] = slot
                del where[victim]
                victims.append(victim)
                if unserved:
                    ahead = unserved.get(victim)
                    if ahead is not None and at < ahead < end:
                        end = ahead
            if does & _APPENDS:
                where[page] = len(order)
                order.append(page)
        if len(victims) < len(slots):
            # The run ended early: give back the draws it did not use.
            rng.bit_generator.state = rewind
            if victims:
                rng.integers(0, bounds[: len(victims)])

        if end < n:
            n = end
            pages, count, carry = pages[:n], count[:n], carry[:n]
            bypass_at = bypass_at[bypass_at < n]
            n_hits = int(np.count_nonzero(hit[:n]))
            n_miss = n - n_hits
        after = np.maximum(count - 1, 0) + carry
        after[bypass_at] = -1
        reuse[pages] = after
        reuse[victims] = -1
        self._pending[pages] = 0
        if len(bypass_at):
            self._pending[pages[bypass_at]] = carry[bypass_at]
        self._num_resident += n_miss - len(bypass_at) - len(victims)
        self.stats.hits += n_hits
        self.stats.misses += n_miss
        self.stats.bypasses += len(bypass_at)
        self.stats.evictions += len(victims)
        self._trace_instants("cache.evict", victims)
        hit_mask[:n] = hit[:n]
        return n

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
        pages = self._page_array(pages)
        reuse = self._reuse
        # A repeated page is already gone the second time round.
        dropped = list(dict.fromkeys(pages[reuse[pages] >= 0].tolist()))
        for page in dropped:
            count = int(reuse[page])
            if count == 0:
                self._unmark_evictable(page)
            else:
                self._pending[page] += count
            reuse[page] = -1
        self._num_resident -= len(dropped)
        self._trace_instants("cache.invalidate", dropped)
        return len(dropped)

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

    def _lines_to_state(self) -> dict:
        """The reuse/pending counters as (page ids, counts) array pairs and
        the evictable population in its exact order, which the random policy
        indexes into and the LRU policy reads recency from."""
        resident = np.flatnonzero(self._reuse >= 0)
        waiting = np.flatnonzero(self._pending > 0)
        evictable = self._evictable
        return {
            "resident_pages": resident,
            "resident_counts": self._reuse[resident],
            "pending_pages": waiting,
            "pending_counts": self._pending[waiting],
            "evictable": np.fromiter(
                evictable, dtype=np.int64, count=len(evictable)
            ),
        }

    def _lines_from_state(self, state: dict) -> None:
        """Rebuild the tables from either layout and check them."""
        if "reuse" in state:
            resident, reuse = state["reuse"].keys(), state["reuse"].values()
            waiting, pending = (
                state["pending"].keys(), state["pending"].values()
            )
            evictable = state[
                "evictable" if self.policy == "random" else "lru"
            ]
        else:
            resident, reuse = state["resident_pages"], state["resident_counts"]
            waiting, pending = state["pending_pages"], state["pending_counts"]
            evictable = state["evictable"]
        resident = _snapshot_ints(resident, "resident pages")
        reuse = _snapshot_ints(reuse, "resident counts")
        waiting = _snapshot_ints(waiting, "pending pages")
        pending = _snapshot_ints(pending, "pending counts")
        evictable = _snapshot_ints(evictable, "evictable pages")
        if len(resident) != len(reuse) or len(waiting) != len(pending):
            raise CheckpointError(
                f"cache snapshot pairs {len(resident)} resident pages with "
                f"{len(reuse)} counts and {len(waiting)} pending pages with "
                f"{len(pending)} counts"
            )
        ids = np.concatenate((resident, waiting, evictable, [-1]))
        size = int(ids.max()) + 1
        self._reuse = np.full(size, -1, dtype=np.int32)
        self._reuse[resident] = reuse
        self._pending = np.zeros(size, dtype=np.int32)
        self._pending[waiting] = pending
        self._num_resident = len(resident)
        self._evictable_list = []
        self._evictable_pos = {}
        self._lru = {}
        for page in evictable.tolist():
            self._mark_evictable(page)
        try:
            self.check_invariants()
        except AssertionError as exc:
            raise CheckpointError(
                f"cache snapshot is inconsistent: {exc}"
            ) from exc

    #: Everything a resumed run needs to make bit-identical eviction
    #: decisions: residency, pinning, eviction order, RNG, stats.  The
    #: ``legacy`` keys are the layout written before the state moved to
    #: arrays (``reuse``/``pending`` dicts keyed by page id, one
    #: ``evictable`` and one ``lru`` list).
    STATE = (
        guard("policy"),
        guard("capacity_lines"),
        rng_state(),
        child("stats", cls=CacheStats),
        custom(
            (
                "resident_pages", "resident_counts",
                "pending_pages", "pending_counts", "evictable",
            ),
            _lines_to_state,
            _lines_from_state,
            legacy=("reuse", "pending", "evictable", "lru"),
        ),
    )

    def check_invariants(self) -> None:
        """Raise if internal bookkeeping is inconsistent (used by tests)."""
        reuse = self._reuse
        pending = self._pending
        if len(reuse) != len(pending):
            raise AssertionError("reuse/pending tables differ in size")
        if int(np.count_nonzero(reuse >= 0)) != self._num_resident:
            raise AssertionError("resident line count out of step")
        if self._num_resident > self.capacity_lines:
            raise AssertionError("resident lines exceed capacity")
        if (reuse < -1).any():
            page = int(np.flatnonzero(reuse < -1)[0])
            raise AssertionError(f"negative reuse counter on {page}")
        evictable = self._evictable
        ids = np.fromiter(evictable, dtype=np.int64, count=len(evictable))
        if len(np.unique(ids)) != len(ids):
            raise AssertionError("evictable page listed twice")
        known = (ids >= 0) & (ids < len(reuse))
        counts = np.full(len(ids), -1, dtype=np.int32)
        counts[known] = reuse[ids[known]]
        if (counts < 0).any():
            page = int(ids[counts < 0][0])
            raise AssertionError(f"evictable page {page} not resident")
        if (counts > 0).any():
            page = int(ids[counts > 0][0])
            raise AssertionError(f"evictable page {page} is pinned")
        if int(np.count_nonzero(reuse == 0)) != len(ids):
            listed = np.zeros(len(reuse), dtype=bool)
            listed[ids] = True
            page = int(np.flatnonzero((reuse == 0) & ~listed)[0])
            raise AssertionError(f"unpinned page {page} not evictable")
        if (pending < 0).any():
            page = int(np.flatnonzero(pending < 0)[0])
            raise AssertionError(f"negative pending count on {page}")
        if ((pending > 0) & (reuse >= 0)).any():
            page = int(np.flatnonzero((pending > 0) & (reuse >= 0))[0])
            raise AssertionError(f"pending entry for resident page {page}")
        if self.policy == "random":
            if len(self._evictable_list) != len(self._evictable_pos):
                raise AssertionError("evictable list/pos size mismatch")
            for page, pos in self._evictable_pos.items():
                if self._evictable_list[pos] != page:
                    raise AssertionError("evictable position map corrupted")


def _snapshot_ints(values, what: str) -> np.ndarray:
    """A snapshot's ``values`` as the non-negative int64 vector it must be."""
    try:
        array = np.asarray(
            values if isinstance(values, np.ndarray) else list(values)
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"cache snapshot {what}: {exc}") from exc
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise CheckpointError(
            f"cache snapshot {what} are not a vector of integers"
        )
    if array.size and not 0 <= array.min() <= array.max() <= _MAX_PAGE_ID:
        raise CheckpointError(f"cache snapshot {what} are out of range")
    return array.astype(np.int64)
