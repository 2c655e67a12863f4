"""Epoch iteration over shuffled seed-node batches."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import SamplingError
from ..state import Stateful, array, guard, scalar
from ..utils import as_rng


def epoch_seed_batches(
    train_ids: np.ndarray,
    batch_size: int,
    *,
    shuffle: bool = True,
    drop_last: bool = False,
    seed: int | np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Yield mini-batch seed arrays covering ``train_ids`` once.

    Args:
        train_ids: labeled node ids.
        batch_size: seeds per mini-batch.
        shuffle: shuffle the ids before batching (standard for training).
        drop_last: drop a trailing partial batch.
        seed: RNG seed or generator for the shuffle.
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    if batch_size <= 0:
        raise SamplingError(f"batch size must be positive, got {batch_size}")
    if len(train_ids) == 0:
        raise SamplingError("train_ids must not be empty")
    order = train_ids
    if shuffle:
        rng = as_rng(seed)
        order = train_ids[rng.permutation(len(train_ids))]
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        if drop_last and len(batch) < batch_size:
            return
        yield batch


class SeedBatchStream(Stateful):
    """Endless, *resumable* stream of shuffled seed batches.

    Behaves exactly like chaining :func:`epoch_seed_batches` epoch after
    epoch — one ``rng.permutation`` draw per epoch, at the moment the
    previous epoch runs dry — but keeps its position (current epoch order +
    cursor) as explicit state so a checkpoint can capture it mid-epoch and a
    resumed run continues with the identical batch sequence.

    Args:
        train_ids: labeled node ids.
        batch_size: seeds per mini-batch.
        rng: the generator the per-epoch shuffles draw from (shared with the
            caller, so checkpointing the generator's bit state elsewhere is
            enough to replay the shuffles).
    """

    def __init__(
        self,
        train_ids: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
    ) -> None:
        train_ids = np.asarray(train_ids, dtype=np.int64)
        if batch_size <= 0:
            raise SamplingError(
                f"batch size must be positive, got {batch_size}"
            )
        if len(train_ids) == 0:
            raise SamplingError("train_ids must not be empty")
        self._train_ids = train_ids
        self._batch_size = batch_size
        self._rng = rng
        self._order: np.ndarray | None = None
        self._pos = 0

    def next(self) -> np.ndarray:
        """The next seed batch, starting a new shuffled epoch when needed."""
        if self._order is None or self._pos >= len(self._order):
            self._order = self._train_ids[
                self._rng.permutation(len(self._train_ids))
            ]
            self._pos = 0
        batch = self._order[self._pos : self._pos + self._batch_size]
        self._pos += self._batch_size
        return batch

    def __next__(self) -> np.ndarray:
        return self.next()

    def __iter__(self) -> "SeedBatchStream":
        return self

    # ------------------------------------------------------------------
    # Checkpointing

    #: Current epoch order and cursor (the RNG is captured by the owner).
    STATE = (
        guard("batch_size", "_batch_size"),
        guard("num_train_ids", lambda self: len(self._train_ids)),
        array("order", np.int64, attr="_order", optional=True),
        scalar("pos", int, attr="_pos"),
    )
