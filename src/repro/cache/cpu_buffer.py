"""Constant CPU buffer: hot node features pinned in CPU memory.

GIDS reserves a user-configurable slice of CPU memory and fills it once with
the feature vectors of the hottest nodes — by default those with the highest
weighted reverse PageRank (Section 3.3).  Accesses to resident nodes are
redirected from the SSD to CPU DRAM over PCIe, raising effective aggregation
bandwidth whenever the SSD array alone cannot fill the link.  The buffer is
*static*: contents never change during training, so lookup is a single
boolean gather.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError, ConfigError
from ..state import Stateful, guard


class ConstantCPUBuffer(Stateful):
    """A static node-feature buffer resident in CPU memory.

    Args:
        num_nodes: node count of the graph (lookup table size).
        feature_bytes: bytes per node feature vector.
        capacity_bytes: CPU memory reserved for the buffer.
        hot_nodes: node ids sorted hottest-first; the prefix that fits is
            pinned.  Pass an empty array for a disabled buffer.
    """

    def __init__(
        self,
        num_nodes: int,
        feature_bytes: int,
        capacity_bytes: float,
        hot_nodes: np.ndarray,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if feature_bytes <= 0:
            raise ConfigError("feature_bytes must be positive")
        if capacity_bytes < 0:
            raise ConfigError("capacity must be non-negative")
        hot_nodes = np.asarray(hot_nodes, dtype=np.int64)
        if len(hot_nodes) and (
            hot_nodes.min() < 0 or hot_nodes.max() >= num_nodes
        ):
            raise ConfigError(f"hot node ids must lie in [0, {num_nodes})")
        if len(np.unique(hot_nodes)) != len(hot_nodes):
            raise ConfigError("hot node ranking contains duplicates")

        self.num_nodes = num_nodes
        self.feature_bytes = feature_bytes
        self.capacity_bytes = float(capacity_bytes)
        max_resident = int(capacity_bytes // feature_bytes)
        self._resident_ids = hot_nodes[:max_resident]
        self._resident = np.zeros(num_nodes, dtype=bool)
        self._resident[self._resident_ids] = True
        if self.used_bytes > self.capacity_bytes:
            raise CapacityError("constant CPU buffer exceeded its capacity")

    @property
    def num_resident(self) -> int:
        return len(self._resident_ids)

    @property
    def used_bytes(self) -> int:
        return self.num_resident * self.feature_bytes

    @property
    def resident_ids(self) -> np.ndarray:
        """Node ids pinned in the buffer (read-only view)."""
        view = self._resident_ids.view()
        view.flags.writeable = False
        return view

    # The buffer is static, so its snapshot exists for *validation*: a
    # resumed run rebuilt from the same configuration must pin exactly the
    # same nodes, otherwise redirect decisions (and therefore every modeled
    # time downstream) would silently diverge.
    STATE = (
        guard("num_nodes"),
        guard("feature_bytes"),
        guard("resident_ids", "_resident_ids"),
    )

    def contains(self, node_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``node_ids`` are served from the buffer."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids) and (
            node_ids.min() < 0 or node_ids.max() >= self.num_nodes
        ):
            raise ConfigError(f"node ids must lie in [0, {self.num_nodes})")
        return self._resident[node_ids]
