"""Feature table with on-demand value generation.

At the paper's scale the feature table is hundreds of gigabytes, so even our
scaled replicas are too large to materialize eagerly.  The store therefore
supports two modes:

* *synthetic* (default) — feature vectors are produced on demand by a
  vectorized splitmix64 hash of ``(node id, column)``, giving deterministic,
  well-distributed float32 values in ``[-1, 1)`` with zero resident memory.
* *materialized* — a user-supplied ``N x D`` array (used by the functional
  training examples and tests on small graphs).

Either way the store is the ground truth that every access tier (GPU cache,
CPU buffer, storage) conceptually reads from, so loaders can fetch values
for the model while the simulation substrate accounts for the bytes moved.
"""

from __future__ import annotations

import numpy as np

from ..config import PAGE_BYTES
from ..errors import StorageError
from .layout import PageLayout

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

#: Rows generated per pass of :meth:`FeatureStore._synthetic`: the uint64
#: hash state of a request is never larger than this many rows.
_CHUNK_ROWS = 1024


class FeatureStore:
    """The node feature table backing a dataset.

    Args:
        num_nodes: node count of the graph.
        feature_dim: feature vector dimension.
        data: optional materialized ``(num_nodes, feature_dim)`` float32
            array; when omitted, values are generated deterministically.
        page_bytes: storage transfer granularity.
        seed: salt mixed into synthetic feature generation.
    """

    def __init__(
        self,
        num_nodes: int,
        feature_dim: int,
        *,
        data: np.ndarray | None = None,
        page_bytes: int = PAGE_BYTES,
        seed: int = 0,
    ) -> None:
        if num_nodes <= 0:
            raise StorageError("num_nodes must be positive")
        if feature_dim <= 0:
            raise StorageError("feature_dim must be positive")
        if data is not None:
            data = np.asarray(data, dtype=np.float32)
            if data.shape != (num_nodes, feature_dim):
                raise StorageError(
                    f"data must have shape ({num_nodes}, {feature_dim}), "
                    f"got {data.shape}"
                )
        self.num_nodes = num_nodes
        self.feature_dim = feature_dim
        self._data = data
        self._seed = np.uint64(seed)
        self.layout = PageLayout(
            num_nodes=num_nodes,
            feature_bytes=feature_dim * 4,
            page_bytes=page_bytes,
        )

    @property
    def feature_bytes(self) -> int:
        """Bytes per node feature vector."""
        return self.feature_dim * 4

    @property
    def total_bytes(self) -> int:
        """Bytes of the whole (conceptual) feature table."""
        return self.num_nodes * self.feature_bytes

    @property
    def is_materialized(self) -> bool:
        return self._data is not None

    def fetch(self, node_ids: np.ndarray) -> np.ndarray:
        """Return the float32 feature matrix for ``node_ids`` (in order)."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids) and (
            node_ids.min() < 0 or node_ids.max() >= self.num_nodes
        ):
            raise StorageError(
                f"node ids must lie in [0, {self.num_nodes})"
            )
        if self._data is not None:
            return self._data[node_ids]
        return self._synthetic(node_ids)

    def page_payload(self, page_id: int) -> np.ndarray:
        """Ground-truth bytes of one storage page (``uint8[page_bytes]``).

        Pages pack node vectors densely in id order, so page ``p`` covers
        bytes ``[p * page_bytes, (p + 1) * page_bytes)`` of the conceptual
        table.  Synthetic pages re-derive their bytes from the splitmix64
        generator; materialized pages view the array slice.  The final page
        is zero-padded past the end of the table, so every page digest is
        defined over exactly ``page_bytes`` bytes.
        """
        page_id = int(page_id)
        layout = self.layout
        if page_id < 0 or page_id >= layout.total_pages:
            raise StorageError(
                f"page id must lie in [0, {layout.total_pages}), got {page_id}"
            )
        page_bytes = layout.page_bytes
        feature_bytes = self.feature_bytes
        start_byte = page_id * page_bytes
        end_byte = start_byte + page_bytes
        first_node = start_byte // feature_bytes
        last_node = min(self.num_nodes - 1, (end_byte - 1) // feature_bytes)
        nodes = np.arange(first_node, last_node + 1, dtype=np.int64)
        flat = self.fetch(nodes).reshape(-1).view(np.uint8)
        offset = start_byte - first_node * feature_bytes
        chunk = flat[offset:offset + page_bytes]
        if len(chunk) < page_bytes:
            padded = np.zeros(page_bytes, dtype=np.uint8)
            padded[: len(chunk)] = chunk
            return padded
        return chunk.copy()

    def _synthetic(self, node_ids: np.ndarray) -> np.ndarray:
        """Deterministic hash-derived features in [-1, 1)."""
        out = np.empty((len(node_ids), self.feature_dim), dtype=np.float32)
        cols = np.arange(self.feature_dim, dtype=np.uint64) + self._seed
        for lo in range(0, len(node_ids), _CHUNK_ROWS):
            ids = node_ids[lo:lo + _CHUNK_ROWS].astype(np.uint64)
            # ``utils.splitmix64``, in place, short of its last
            # ``x ^= x >> 31``: only bits 40-63 are kept, and that step
            # cannot change them (they would come from bits 71-94).  The
            # shared function's extra pass and copies cost the fetch path.
            x = ids[:, None] * np.uint64(self.feature_dim) + cols
            shifted = np.empty_like(x)
            x += _SPLITMIX_GAMMA
            x ^= np.right_shift(x, np.uint64(30), out=shifted)
            x *= _MIX_1
            x ^= np.right_shift(x, np.uint64(27), out=shifted)
            x *= _MIX_2
            # Top 24 bits -> uniform float32 in [0, 1) -> [-1, 1): with
            # the integer exact in float32, ``* 2**-23 - 1`` rounds once,
            # as ``/ 2**24 * 2 - 1`` did.
            x >>= np.uint64(40)
            unit = out[lo:lo + _CHUNK_ROWS]
            unit[...] = x
            unit *= np.float32(2.0**-23)
            unit -= np.float32(1.0)
        return out
