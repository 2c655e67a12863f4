"""Node-to-page mapping for a paged feature table.

Storage devices transfer whole pages (4 KB cache lines in BaM), so the unit
of storage traffic is the page, not the node.  Depending on the feature
dimension a page holds several node vectors (dim 128 -> 8 nodes/page) or a
node spans several pages (dim 2048 -> 2 pages/node); both directions of
I/O amplification are modeled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PAGE_BYTES
from ..errors import ConfigError
from ..utils import ceil_div, sorted_unique


@dataclass(frozen=True)
class PageLayout:
    """Maps node ids to the storage pages holding their feature vectors.

    Nodes are packed densely in id order: node ``i`` occupies bytes
    ``[i * feature_bytes, (i + 1) * feature_bytes)`` of the table.
    """

    num_nodes: int
    feature_bytes: int
    page_bytes: int = PAGE_BYTES

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if self.feature_bytes <= 0:
            raise ConfigError("feature_bytes must be positive")
        if self.page_bytes <= 0:
            raise ConfigError("page_bytes must be positive")

    @property
    def pages_per_node(self) -> int:
        """Pages a single node's feature vector spans (>= 1)."""
        return max(1, ceil_div(self.feature_bytes, self.page_bytes))

    @property
    def nodes_per_page(self) -> int:
        """Whole node vectors that fit in one page (>= 1)."""
        return max(1, self.page_bytes // self.feature_bytes)

    @property
    def total_pages(self) -> int:
        """Pages occupied by the whole feature table."""
        return ceil_div(self.num_nodes * self.feature_bytes, self.page_bytes)

    def pages_for_nodes(self, node_ids: np.ndarray) -> np.ndarray:
        """Unique page ids needed to read the given nodes' features.

        Args:
            node_ids: node ids (need not be unique or sorted).

        Returns:
            Sorted unique int64 page ids.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids) == 0:
            return node_ids
        if node_ids.min() < 0 or node_ids.max() >= self.num_nodes:
            raise ConfigError(
                f"node ids must lie in [0, {self.num_nodes})"
            )
        if (
            self.feature_bytes <= self.page_bytes
            and self.page_bytes % self.feature_bytes == 0
        ):
            # Aligned fast path: a page holds a whole number of vectors.
            per_page = self.page_bytes // self.feature_bytes
            return sorted_unique(node_ids // per_page)
        # General byte-range mapping: a vector may straddle a page boundary
        # (e.g. 3072 B features on 4 KB pages) or span several pages.
        start = node_ids * self.feature_bytes
        first = start // self.page_bytes
        last = (start + self.feature_bytes - 1) // self.page_bytes
        max_span = int((last - first).max()) + 1
        offsets = np.arange(max_span, dtype=np.int64)
        candidates = first[:, None] + offsets[None, :]
        valid = candidates <= last[:, None]
        return sorted_unique(candidates[valid])
