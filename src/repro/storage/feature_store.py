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

#: Elements hashed per block of :meth:`FeatureStore._synthetic` (32 rows
#: at dim 1,024): the block's uint64 state, its shift scratch and its int32
#: top bits stay in L2 however many rows a request asks for.  Chosen by the
#: ``synthetic_fetch`` block-size sweep of
#: ``benchmarks/bench_training_kernels.py`` (``BENCH_training_kernels.json``).
_BLOCK_ELEMENTS = 1 << 15

_SHIFT_1, _SHIFT_2, _TOP_24 = np.uint64(30), np.uint64(27), np.uint64(40)
#: The kept top 24 bits ``k`` become ``(k - _HALF_RANGE) * _UNIT``.
_HALF_RANGE, _UNIT = np.int32(1 << 23), np.float32(2.0**-23)


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
        #: ``column + seed + gamma`` per column: the part of the hash
        #: input that is the same for every row.
        self._columns = np.arange(feature_dim, dtype=np.uint64)
        self._columns += np.uint64(seed)
        self._columns += _SPLITMIX_GAMMA
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

    def fetch(self, node_ids: np.ndarray) -> np.ndarray:
        """Return the float32 feature matrix for ``node_ids`` (in order).

        ``node_ids`` must be a 1-D array of integer ids in
        ``[0, num_nodes)``; anything else — a 2-D array, float or bool ids
        — is a :class:`~repro.errors.StorageError`, never a silent cast.
        """
        node_ids = np.asarray(node_ids)
        if node_ids.ndim != 1 or node_ids.dtype.kind not in "iu":
            raise StorageError(
                "node ids must be a 1-D integer array, got "
                f"{node_ids.ndim}-D {node_ids.dtype}"
            )
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
        """Deterministic hash-derived features in [-1, 1).

        Hashes ``_BLOCK_ELEMENTS`` at a time through block buffers
        allocated once per call, so no request builds uint64 temporaries
        larger than one block.
        """
        n, dim = len(node_ids), self.feature_dim
        out = np.empty((n, dim), dtype=np.float32)
        rows = max(1, min(n, _BLOCK_ELEMENTS // dim))
        state = np.empty((rows, dim), dtype=np.uint64)
        shifted = np.empty_like(state)
        top = np.empty((rows, dim), dtype=np.int32)
        base = node_ids.astype(np.uint64)
        base *= np.uint64(dim)
        for lo in range(0, n, rows):
            x, s, k = state, shifted, top
            if lo + rows > n:
                x, s, k = x[: n - lo], s[: n - lo], k[: n - lo]
            unit = out[lo:lo + rows]
            # ``utils.splitmix64`` of ``id * dim + column + seed``, in
            # place, with the increment folded into the columns and short
            # of its last ``x ^= x >> 31``: only bits 40-63 are kept, and
            # that step cannot change them (they would come from bits
            # 71-94).
            np.add(base[lo:lo + rows, None], self._columns, out=x)
            x ^= np.right_shift(x, _SHIFT_1, out=s)
            x *= _MIX_1
            x ^= np.right_shift(x, _SHIFT_2, out=s)
            x *= _MIX_2
            # Top 24 bits ``k`` -> ``(k - 2**23) * 2**-23`` in [-1, 1),
            # exact in int32 and in float32, so bit for bit the
            # ``k * 2**-23 - 1`` the SHA-256 pin in the tests holds (that
            # rounds once, to an exact result); int32 avoids numpy's slow
            # uint64 -> float cast.
            np.right_shift(x, _TOP_24, out=k, casting="unsafe")
            k -= _HALF_RANGE
            np.copyto(unit, k, casting="unsafe")
            unit *= _UNIT
        return out
