"""Window buffering: mini-batch look-ahead for the GPU software cache.

The window buffer holds the sampled node-ID (page) lists of the next ``W``
iterations (Section 3.4, Fig. 6).  When a freshly sampled iteration enters
the window, every page it references gets one future-reuse unit registered
in the GPU software cache, moving resident lines into the "USE" state so
they cannot be evicted; when the iteration is eventually aggregated, each
access consumes one unit and lines whose counters reach zero become
evictable again.

The buffer itself only stores sampled mini-batches — several megabytes of
node IDs per iteration at paper scale — which is the GPU-memory cost the
paper's trade-off discussion refers to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..cache.gpu_cache import GPUSoftwareCache
from ..errors import ConfigError
from ..sampling.minibatch import MiniBatch
from ..state import (
    StateRecord,
    Stateful,
    array,
    child,
    children,
    guard,
    scalar,
)
from ..telemetry.tracer import ensure_tracer


@dataclass(frozen=True)
class WindowEntry(StateRecord):
    """One pre-sampled iteration waiting in the window.

    ``payload`` carries loader-specific bookkeeping (e.g. redirect counts
    computed at sampling time) through the FIFO untouched.
    """

    batch: MiniBatch
    pages: np.ndarray
    payload: object = None

    STATE = (
        child("batch", cls=MiniBatch),
        array("pages", np.int64),
        scalar("payload"),
    )


class WindowBuffer(Stateful):
    """A FIFO of pre-sampled iterations wired to a GPU software cache.

    Args:
        cache: the cache whose pinning state this window drives.
        depth: look-ahead depth ``W``; 0 disables window buffering (the
            cache then runs its plain eviction policy).
        tracer: optional telemetry tracer; pin/unpin traffic is recorded
            as instants on the ``"window"`` lane at request detail.
    """

    def __init__(
        self, cache: GPUSoftwareCache, depth: int, tracer=None
    ) -> None:
        if depth < 0:
            raise ConfigError("window depth must be non-negative")
        self.cache = cache
        self.depth = depth
        self.tracer = ensure_tracer(tracer)
        self._entries: deque[WindowEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= max(self.depth, 1)

    def push(
        self, batch: MiniBatch, pages: np.ndarray, payload: object = None
    ) -> None:
        """Add a freshly sampled iteration to the window.

        Registers the iteration's pages with the cache so reusable lines
        are pinned (steps 1-5 of Fig. 6).  With depth 0 the registration is
        skipped and the window degenerates to a plain FIFO of size one.
        """
        entry = WindowEntry(
            batch=batch, pages=np.asarray(pages, np.int64), payload=payload
        )
        if self.depth > 0:
            self.cache.register_future(entry.pages)
        self._entries.append(entry)
        tracer = self.tracer
        if tracer.want_request_detail:
            tracer.instant(
                "window.pin",
                "window",
                pages=int(entry.pages.size),
                queued=len(self._entries),
            )

    def pop(self) -> WindowEntry:
        """Remove and return the oldest iteration for aggregation.

        The subsequent cache accesses for the entry's pages consume the
        future-reuse units registered at push time — the caller must access
        exactly ``entry.pages`` once.
        """
        if not self._entries:
            raise ConfigError("window buffer is empty")
        entry = self._entries.popleft()
        tracer = self.tracer
        if tracer.want_request_detail:
            tracer.instant(
                "window.pop",
                "window",
                pages=int(entry.pages.size),
                queued=len(self._entries),
            )
        return entry

    def drain(self) -> None:
        """Drop all queued iterations, un-registering their reuse units.

        Used at the end of a measured run so pinned lines do not leak into
        subsequent experiments.
        """
        tracer = self.tracer
        while self._entries:
            entry = self._entries.popleft()
            if self.depth > 0:
                self.cache.forget_future(entry.pages)
            if tracer.want_request_detail:
                tracer.instant(
                    "window.unpin", "window", pages=int(entry.pages.size)
                )

    # ------------------------------------------------------------------
    # Checkpointing

    # Only the FIFO contents: the reuse units these entries registered live
    # in the *cache's* snapshot.  They are therefore restored *without*
    # going through :meth:`push` — the paired cache snapshot already holds
    # the registration counts, and pushing would double-pin every page.
    STATE = (
        guard("depth"),
        children("entries", "_entries", cls=WindowEntry, into=deque),
    )
