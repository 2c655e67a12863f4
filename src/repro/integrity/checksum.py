"""Lazy per-page digests over the ground-truth feature table.

The GIDS read path moves millions of 4 KB pages per second from consumer
SSDs straight into GPU memory — exactly the traffic profile where a silent
bit error corrupts training instead of crashing it.  The defense is a
per-page digest: every page of the (conceptual) feature table has a
CRC32C-style checksum that the verify-on-read path and the background
scrubber compare device bytes against.

At paper scale the digest table itself would be gigabytes, so digests are
*lazy*: nothing is computed until a page is first verified, and the memo is
bounded.  Synthetic stores re-derive page bytes from the splitmix64
generator (zero resident memory); materialized stores hash the array slice.
Either way :meth:`~repro.storage.feature_store.FeatureStore.page_payload`
is the single source of ground truth, so the digest of a page is a pure
function of the store configuration — two processes (or a killed-and-
resumed run) always agree without shipping digest state around.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..errors import IntegrityError
from ..storage.feature_store import FeatureStore

#: Default bound on memoized digests (4-byte digests; 1M entries ~ a few
#: tens of MB of dict overhead, far below one second of page traffic).
DEFAULT_MAX_CACHED = 1_000_000


class PageChecksummer:
    """Computes and memoizes per-page CRC32 digests of a feature store.

    Args:
        store: the ground-truth feature table.
        max_cached: digest memo bound; once full, the memo stops growing
            and further digests are recomputed on demand (correctness is
            unaffected — digests are pure functions of the store).
    """

    def __init__(
        self, store: FeatureStore, *, max_cached: int = DEFAULT_MAX_CACHED
    ) -> None:
        if max_cached < 0:
            raise IntegrityError("max_cached must be non-negative")
        self.store = store
        self.max_cached = max_cached
        self._memo: dict[int, int] = {}
        self.computed = 0  # digests computed from payload (memo misses)

    @property
    def total_pages(self) -> int:
        return self.store.layout.total_pages

    def __len__(self) -> int:
        return len(self._memo)

    def digest(self, page_id: int) -> int:
        """The uint32 digest of page ``page_id`` (memoized)."""
        page_id = int(page_id)
        cached = self._memo.get(page_id)
        if cached is not None:
            return cached
        value = zlib.crc32(self.store.page_payload(page_id).tobytes())
        self.computed += 1
        if len(self._memo) < self.max_cached:
            self._memo[page_id] = value
        return value

    def verify_payload(self, page_id: int, payload: np.ndarray) -> bool:
        """Whether ``payload`` matches the ground-truth digest of the page.

        This is the *actual* comparison the modeled verify path stands in
        for; tests use it to prove the digest catches every single-bit
        flip (CRC32 detects all 1-bit and 2-bit errors at this page size).
        """
        payload = np.asarray(payload, dtype=np.uint8)
        if len(payload) != self.store.layout.page_bytes:
            raise IntegrityError(
                f"payload must be exactly {self.store.layout.page_bytes} "
                f"bytes, got {len(payload)}"
            )
        return zlib.crc32(payload.tobytes()) == self.digest(page_id)
