"""Shared cache statistics."""

from __future__ import annotations

from dataclasses import dataclass

from ..state import StateRecord, scalar


@dataclass
class CacheStats(StateRecord):
    """Hit/miss accounting common to every cache tier.

    ``bypasses`` counts accesses that missed *and* could not be admitted
    (every line pinned) — those are streamed straight to the consumer
    without ever becoming resident.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0

    STATE = tuple(
        scalar(name, int)
        for name in ("hits", "misses", "evictions", "bypasses")
    )

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
