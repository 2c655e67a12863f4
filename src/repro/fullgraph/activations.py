"""Activation offload store for full-graph sweeps.

Holds the per-layer output arrays (``h_1 .. h_L``) a sweep produces.  The
*values* are always materialized (this is a simulation — numerics must be
exact either way); what the store models is **where** they live:

* ``resident=True`` — everything fits the HBM budget; writes and reads
  are free of storage traffic (the trainer charges HBM bandwidth).
* ``resident=False`` — activations are spilled to SSD as they are
  produced during the forward sweep and reloaded in reverse order during
  backward.  Every access reports the bytes (and 4K pages) moved so the
  trainer can charge the sequential-bandwidth path, route the pages
  through the fault injector, and verify them on reload exactly like
  feature pages.
"""

from __future__ import annotations

import numpy as np

from ..errors import FullGraphError
from ..state import Stateful, guard, mapping, scalar

#: Spilled activations are paged at the storage granularity.
PAGE_BYTES = 4096


class ActivationStore(Stateful):
    """Per-layer full-graph activation arrays with offload accounting.

    Args:
        num_nodes: rows of every stored array.
        resident: whether activations fit in HBM (no storage traffic).
        page_bytes: spill page granularity.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        resident: bool,
        page_bytes: int = PAGE_BYTES,
    ) -> None:
        if num_nodes <= 0:
            raise FullGraphError("num_nodes must be positive")
        if page_bytes <= 0:
            raise FullGraphError("page_bytes must be positive")
        self.num_nodes = int(num_nodes)
        self.resident = bool(resident)
        self.page_bytes = int(page_bytes)
        self._arrays: dict[int, np.ndarray] = {}
        self.spilled_bytes = 0
        self.spill_pages = 0
        self.reloaded_bytes = 0
        self.reload_pages = 0

    # ------------------------------------------------------------------
    # Data plane

    def allocate(self, layer: int, dim: int) -> None:
        """Create (or reset) layer ``layer``'s output array."""
        if dim <= 0:
            raise FullGraphError("activation dim must be positive")
        self._arrays[layer] = np.zeros(
            (self.num_nodes, dim), dtype=np.float64
        )

    def has(self, layer: int) -> bool:
        return layer in self._arrays

    def array(self, layer: int) -> np.ndarray:
        """The full array for ``layer`` (no transfer accounting)."""
        try:
            return self._arrays[layer]
        except KeyError:
            raise FullGraphError(
                f"layer {layer} has no stored activations"
            ) from None

    def pages_for(self, n_bytes: int) -> int:
        return -(-int(n_bytes) // self.page_bytes)

    def write_rows(
        self, layer: int, rows: np.ndarray, values: np.ndarray
    ) -> int:
        """Store one partition block; returns bytes spilled to storage.

        Returns 0 when resident — the write stays in HBM.
        """
        arr = self.array(layer)
        if values.shape != (len(rows), arr.shape[1]):
            raise FullGraphError("activation block shape mismatch")
        arr[rows] = values
        if self.resident:
            return 0
        n_bytes = values.size * values.itemsize
        self.spilled_bytes += n_bytes
        self.spill_pages += self.pages_for(n_bytes)
        return n_bytes

    def read_rows(
        self, layer: int, rows: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Reload one block of rows; returns ``(values, bytes_reloaded)``.

        Bytes are 0 when resident (the trainer charges HBM reads instead).
        """
        arr = self.array(layer)
        values = arr[rows]
        if self.resident:
            return values, 0
        n_bytes = values.size * values.itemsize
        self.reloaded_bytes += n_bytes
        self.reload_pages += self.pages_for(n_bytes)
        return values, n_bytes

    def charge_scratch(self, n_bytes: int, *, read: bool) -> int:
        """Account offloaded scratch traffic (e.g. gradient buffers).

        Returns the bytes actually charged against storage (0 when
        resident), updating the same spill/reload counters.
        """
        if n_bytes < 0:
            raise FullGraphError("scratch bytes must be non-negative")
        if self.resident or n_bytes == 0:
            return 0
        if read:
            self.reloaded_bytes += n_bytes
            self.reload_pages += self.pages_for(n_bytes)
        else:
            self.spilled_bytes += n_bytes
            self.spill_pages += self.pages_for(n_bytes)
        return int(n_bytes)

    def drop(self, layer: int) -> None:
        """Discard a layer's activations (freed after backward consumes it)."""
        self._arrays.pop(layer, None)

    # ------------------------------------------------------------------
    # Checkpointing

    STATE = (
        guard("num_nodes"),
        scalar("resident", bool),
        scalar("page_bytes", int),
        mapping(
            "arrays", lambda block: np.asarray(block, dtype=np.float64).copy(),
            attr="_arrays", name=int,
            save=lambda arrays: {int(k): v.copy() for k, v in arrays.items()},
            check=lambda self, arrays: any(
                a.ndim != 2 or a.shape[0] != self.num_nodes
                for a in arrays.values()
            )
            and "array shape does not match the graph",
        ),
        scalar("spilled_bytes", int),
        scalar("spill_pages", int),
        scalar("reloaded_bytes", int),
        scalar("reload_pages", int),
    )
