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

Random eviction works a *batch* at a time: the longest stretch of an
``access`` call that names no page twice, whose lookups and evictions one
batch's GPU threads make concurrently.  Every page of a batch is classified
against the state at batch entry; misses fill free lines first, and each
later miss evicts while an unpinned line is left for it, else streams
through (bypass).  The batch's victims are then drawn uniformly, distinct,
in one ``Generator.choice`` call over the lines evictable at entry (in their
evictable order) followed by the lines the batch releases (in page order) —
so a line the batch hits may be evicted once it is served.  The order is
then the entry order less its victims, followed by the released lines that
survive; a pin or an invalidation leaves a hole, the order otherwise in
place (a uniform choice fixes no order), and holes are closed, order kept,
by a draw or when the buffer is full.  The tables are ``int32`` arrays
indexed by page id (reuse count, pending count, evictable slot; ``-1`` =
none), grown by doubling — about 12 bytes per page of the feature table —
plus the order, an ``int32`` buffer of at most twice the most lines
evictable at once.  A long batch is served with array operations (one
fancy-index classifies it, one cumulative sum counts the unpinned lines each
full-cache miss finds), a short one page by page; the LRU arm evicts page
by page, least recent first.  Decisions are those of the per-page
definition (``tests/oracles/gpu_cache_reference.py``) bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import CheckpointError, ConfigError
from ..state import Stateful, child, custom, guard, rng_state
from ..telemetry.tracer import ensure_tracer
from ..utils import as_rng
from .base import CacheStats

#: Supported eviction policies for the unpinned population.
_POLICIES = ("random", "lru")

#: Batches shorter than this are walked page by page: the array path costs
#: tens of microseconds of NumPy set-up whatever its length.  Chosen by
#: cutting the three recorded streams of ``benchmarks/bench_gpu_cache.py``
#: into calls of k pages (its ``run_min_sweep`` block in
#: ``BENCH_gpu_cache.json``): the array path overtakes the walk at k = 12-16
#: (88% misses; all hits) and 40-48 (every line pinned), and at 48 it is
#: 1.6x, 2.2x and 1.1x the walk's speed.  Serving sends about 7 pages per
#: call.
_RUN_MIN = 48

#: Page ids index arrays, so they are bounded; 2**31 ids is 16 GiB of state.
_MAX_PAGE_ID = 2**31 - 1


def _batch_ends(pages: np.ndarray) -> list[int]:
    """Where each batch of ``pages`` ends: the greedy cut of the call into
    the longest stretches that name no page twice."""
    n = len(pages)
    if n < 2 or (pages[1:] > pages[:-1]).all():
        return [n]
    order = np.argsort(pages, kind="stable")
    again = np.flatnonzero(pages[order[1:]] == pages[order[:-1]])
    # Each repeat's position, beside its page's previous occurrence.
    repeat, before = order[again + 1], order[again]
    by = np.argsort(repeat)
    ends, start = [], 0
    for at, prev in zip(repeat[by].tolist(), before[by].tolist()):
        if prev >= start:
            ends.append(at)
            start = at
    ends.append(n)
    return ends


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
        # "random": ``_order[:_end]`` holds them with -1 holes, ``_live`` of
        # them, and ``_slot`` maps a page to its index there (-1 = none);
        # for "lru": an OrderedDict, least recent first.
        self._slot = np.full(0, -1, dtype=np.int32)
        self._order = np.zeros(0, dtype=np.int32)
        self._end = self._live = 0
        self._lru: OrderedDict[int, None] = OrderedDict()

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
    def _evictable(self) -> np.ndarray:
        """The unpinned lines, in the order the policy reads them."""
        if self.policy == "lru":
            return np.fromiter(self._lru, dtype=np.int64, count=len(self._lru))
        order = self._order[: self._end]
        return order[order >= 0].astype(np.int64)

    @property
    def _num_evictable(self) -> int:
        return self._live if self.policy == "random" else len(self._lru)

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
        for name, empty in (("_reuse", -1), ("_pending", 0), ("_slot", -1)):
            table = np.full(size, empty, dtype=np.int32)
            table[:old] = getattr(self, name)
            setattr(self, name, table)

    # ------------------------------------------------------------------
    # Evictable-set maintenance

    def _unpin(self, pages: np.ndarray) -> None:
        """Take distinct evictable ``pages`` out; the order stays in place."""
        if self.policy == "lru":
            for page in pages.tolist():
                del self._lru[page]
            return
        self._order[self._slot[pages]] = -1
        self._slot[pages] = -1
        self._live -= len(pages)

    def _release(self, pages) -> None:
        """Append the newly evictable ``pages`` to the order, in order."""
        if not len(pages):
            return
        pages = np.asarray(pages, dtype=np.int64)
        if self.policy == "lru":
            self._lru.update(dict.fromkeys(pages.tolist()))
            return
        end, k = self._end, len(pages)
        if end + k > len(self._order):
            self._compact()
            end = self._end
            if 2 * (end + k) > len(self._order):
                order = np.empty(2 * (end + k), dtype=np.int32)
                order[:end] = self._order[:end]
                self._order = order
        self._order[end : end + k] = pages
        self._slot[pages] = np.arange(end, end + k, dtype=np.int32)
        self._end = end + k
        self._live += k

    def _compact(self) -> None:
        """Close the order's holes, keeping the lines' order."""
        if self._end > self._live:
            order = self._order[: self._end]
            live = order[order >= 0]
            order[: self._live] = live
            self._slot[live] = np.arange(self._live, dtype=np.int32)
            self._end = self._live

    def _evict(self, released, owed: int) -> None:
        """End a batch (random policy): draw its ``owed`` victims in one call
        and append the ``released`` lines that survive, in page order.

        The candidates are the evictable order at batch entry, then the
        ``released`` lines.  The batch's own ``reuse`` writes are done, so a
        victim it hit is served and then evicted.
        """
        if owed:
            order = self._order[: self._end]
            candidates = np.concatenate(
                (order[order >= 0], np.asarray(released, dtype=np.int64))
            )
            drawn = np.zeros(len(candidates), dtype=bool)
            drawn[
                self._rng.choice(
                    len(candidates), size=owed, replace=False, shuffle=False
                )
            ] = True
            victims = candidates[drawn]
            # The entry order less its victims, then the released survivors.
            released = candidates[~drawn]
            self._slot[victims] = -1
            self._end = self._live = 0
            self._reuse[victims] = -1
            self._num_resident -= owed
            self.stats.evictions += owed
            self._trace_instants("cache.evict", victims)
        self._release(released)

    def _trace_instants(self, name: str, pages) -> None:
        tracer = self.tracer
        if tracer.want_request_detail:
            for page in np.asarray(pages).tolist():
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
        unpin = pages[count == 0]
        if len(_batch_ends(pages)) == 1:
            self._reuse[pages] = count + resident
            self._pending[pages] += ~resident
        else:
            np.add.at(self._reuse, pages[resident], 1)
            np.add.at(self._pending, pages[~resident], 1)
            unpin = np.unique(unpin)
        self._unpin(unpin)

    def forget_future(self, pages: np.ndarray) -> None:
        """Reverse :meth:`register_future` for pages that will not be used.

        Needed when a window entry is dropped unconsumed (end of epoch).
        """
        pages = self._page_array(pages)
        reuse = self._reuse
        pending = self._pending
        if len(_batch_ends(pages)) == 1:
            count = reuse[pages]
            reuse[pages] = count - (count > 0)
            # Resident pages hold no pending units, so this only moves the
            # non-resident ones.
            waiting = pending[pages]
            pending[pages] = waiting - (waiting > 0)
            self._release(pages[count == 1])
            return
        # A repeated page sees what its earlier occurrence left behind.
        freed = []
        for page in pages.tolist():
            count = reuse[page]
            if count > 0:
                reuse[page] = count - 1
                if count == 1:
                    freed.append(page)
            elif count < 0 and pending[page] > 0:
                pending[page] -= 1
        self._release(freed)

    # ------------------------------------------------------------------
    # Access path

    def access(self, pages: np.ndarray) -> np.ndarray:
        """Look up ``pages``; admit misses; return a boolean hit mask.

        Every access consumes one unit of the page's future-reuse counter
        (the unit registered when this iteration entered the window); a line
        whose counter reaches zero returns to the evictable population.
        Misses evict a victim chosen by the configured policy among
        *unpinned* lines; if every line is pinned the miss is streamed
        through without admission (counted as a bypass).  The random
        policy draws a batch's victims together once the batch is served.
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
        start = 0
        for end in _batch_ends(pages):
            if end - start < _RUN_MIN:
                self._access_walk(pages[start:end], hit_mask[start:end])
            else:
                self._access_batch(pages[start:end], hit_mask[start:end])
            start = end
        return hit_mask

    def _access_walk(self, pages: np.ndarray, hit_mask: np.ndarray) -> None:
        """Serve ``pages`` one at a time: a short batch of the random
        policy, or a whole call of the LRU arm, which evicts at once."""
        reuse = self._reuse
        pending = self._pending
        lru = self._lru if self.policy == "lru" else None
        # Lines the batch releases: the random policy offers them to the
        # batch's draw, LRU (which refreshes recency) appends them at once.
        released: list[int] = []
        free = released.append if lru is None else lru.setdefault
        room = self.capacity_lines - self._num_resident
        # Unpinned lines a full-cache miss still finds (random policy).
        level = self._live
        owed = hits = 0
        for i, page in enumerate(pages.tolist()):
            count = reuse[page]
            if count >= 0:
                hit_mask[i] = True
                hits += 1
                if count > 0:
                    reuse[page] = count - 1
                    if count == 1:
                        free(page)
                        level += 1
                elif lru is not None:
                    # Refresh recency of an unpinned line.
                    lru.move_to_end(page)
                continue
            # A miss consumes one registered unit; admit, evicting if full.
            count = max(int(pending[page]) - 1, 0)
            if room:
                room -= 1
            elif lru is None and level:
                level -= 1
                owed += 1
            elif lru:
                victim = lru.popitem(last=False)[0]
                reuse[victim] = -1
                self._num_resident -= 1
                self.stats.evictions += 1
                self._trace_instants("cache.evict", (victim,))
            else:
                # Every line pinned: stream the page without caching.
                self.stats.bypasses += 1
                pending[page] = count
                continue
            pending[page] = 0
            reuse[page] = count
            self._num_resident += 1
            if count == 0:
                free(page)
                level += 1
        if lru is None:
            self._evict(released, owed)
        self.stats.hits += hits
        self.stats.misses += len(pages) - hits

    def _access_batch(self, pages: np.ndarray, hit_mask: np.ndarray) -> None:
        """Serve a batch (random policy) with array operations."""
        reuse = self._reuse
        count = reuse[pages]
        hit = count >= 0
        n_miss = len(pages) - int(np.count_nonzero(hit))
        owed = 0
        if n_miss:
            # A line keeps its units less the one this access consumes; an
            # admitted miss starts with its registered units less that one
            # (resident pages hold no pending units).
            waiting = self._pending[pages]
            after = np.maximum(count + waiting - hit, 0)
            self._pending[pages] = 0
            free = self.capacity_lines - self._num_resident
            self._num_resident += n_miss
            owed = max(n_miss - free, 0)
        else:
            after = np.maximum(count - 1, 0)
        released = (after == 0) & (count != 0)
        # Each full-cache miss admitted pinned takes one unpinned line for
        # good; only when those could use up the unpinned lines can a miss
        # find none and stream through (bypass).
        if owed and self._live <= np.count_nonzero(waiting > 1):
            # Misses fill free lines first; once full the cache stays full.
            # The unpinned lines gain the lines the batch releases and lose
            # one per full-cache miss, never below zero.
            miss = ~hit
            full = miss & (np.cumsum(miss) > free)
            step = released.astype(np.int64)
            step -= full
            # level[i]: unpinned lines left when page i is reached.
            level = np.cumsum(np.concatenate(([self._live], step)))
            level -= np.minimum.accumulate(np.minimum(level, 0))
            full_at = np.flatnonzero(full)
            evicts = level[full_at] > 0
            owed = int(np.count_nonzero(evicts))
            bypass_at = full_at[~evicts]
            released[bypass_at] = False
            self._pending[pages[bypass_at]] = after[bypass_at]
            after[bypass_at] = -1
            self._num_resident -= len(bypass_at)
            self.stats.bypasses += len(bypass_at)
        reuse[pages] = after
        self._evict(pages[released], owed)
        self.stats.hits += len(pages) - n_miss
        self.stats.misses += n_miss
        hit_mask[:] = hit

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
        dropped = pages[reuse[pages] >= 0]
        dropped = dropped[np.sort(np.unique(dropped, return_index=True)[1])]
        count = reuse[dropped]
        self._unpin(dropped[count == 0])
        self._pending[dropped] += count
        reuse[dropped] = -1
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
        return {
            "resident_pages": resident,
            "resident_counts": self._reuse[resident],
            "pending_pages": waiting,
            "pending_counts": self._pending[waiting],
            "evictable": self._evictable,
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
        for field, ids in (
            ("resident_pages", resident),
            ("pending_pages", waiting),
            ("evictable", evictable),
        ):
            if len(np.unique(ids)) != len(ids):
                raise CheckpointError(
                    f"cache snapshot names a page twice in {field}"
                )
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
        self._slot = np.full(size, -1, dtype=np.int32)
        self._end = self._live = 0
        self._lru = OrderedDict()
        self._release(evictable)
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
        ids = self._evictable
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
            slots = np.flatnonzero(self._order[: self._end] >= 0)
            listed = np.count_nonzero(self._slot >= 0)
            if not len(slots) == listed == self._live:
                raise AssertionError("evictable count out of step")
            if (self._slot[self._order[slots]] != slots).any():
                raise AssertionError("evictable slot table corrupted")


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
