"""Order-preserving scatter kernels for neighbor aggregation.

``np.add.at(out, index, values)`` applies its updates one edge at a time,
in array order, which makes it exact to reason about and numpy's slowest
scatter.  The kernels here compute the same bits from *rank peeling*: edge
``e`` has rank ``k`` when it is the ``k``-th edge, in array order, that
hits its target row.  All rank-``k`` edges hit distinct rows, so
``out[targets_k] += values[edges_k]`` is one vectorised add, and running
``k = 0, 1, ...`` adds into every row in exactly the order ``np.add.at``
does.  Floating-point addition is not associative, so the order is the
contract: a segment reduction (``np.add.reduceat``) sums pairwise and is
*not* bit-equal.

The levels update a *prefix accumulator*: the rows that receive edges,
most edges first, are gathered once into a contiguous ``acc``.  A row with
more than ``k`` edges has a rank-``k`` edge, so rank ``k`` hits exactly
``acc[:n_k]`` — each level is one in-place ufunc on a contiguous prefix,
with no fancy-index write-back per level, and ``acc`` is written back to
``out`` once.

The ranks depend only on the index array, never on the values, so the
sort passes live in a :class:`ScatterPlan` that static graphs build once
(:class:`~repro.fullgraph.scheduler.PartitionSweepScheduler`) and sampled
blocks build per block.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: A rank level is applied as one vectorised update only while it moves at
#: least this many elements; thinner levels — the long tail of a hub row —
#: cost more in per-call overhead than ``ufunc.at`` does per element, so
#: they finish in a single ``ufunc.at`` over the remaining edges.
_MIN_LEVEL_ELEMENTS = 256


class ScatterPlan:
    """The edges of one index array, ordered by rank.

    Attributes:
        rows: the distinct targets, by edge count descending, ties by row
            id; rank ``k``'s targets are ``rows[:n_k]``.
        order: edge ids by rank and, within a rank, by their target's
            position in ``rows`` — so every target row still meets its
            edges in original array order.
        targets: ``index[order]``.
        levels: ``(lo, hi)`` slice bounds of each rank within ``order``;
            level sizes never increase with rank.
    """

    __slots__ = ("rows", "order", "targets", "levels")

    def __init__(self, index: np.ndarray) -> None:
        index = np.asarray(index, dtype=np.int64)
        by_target = np.argsort(index, kind="stable")
        grouped = index[by_target]
        is_start = np.ones(len(index), dtype=bool)
        is_start[1:] = grouped[1:] != grouped[:-1]
        starts = np.flatnonzero(is_start)
        group = np.cumsum(is_start) - 1
        rank = np.arange(len(index)) - starts[group]
        # Most edges first; the stable sort breaks ties by row id.
        counts = np.diff(starts, append=len(index))
        by_count = np.argsort(-counts, kind="stable")
        self.rows = grouped[starts[by_count]]
        slot = np.empty(len(starts), dtype=np.int64)
        slot[by_count] = np.arange(len(starts))
        bounds = np.concatenate(([0], np.cumsum(np.bincount(rank))))
        # A row's rank-k edge sits at the row's slot within level k.
        self.order = np.empty(len(index), dtype=np.int64)
        self.order[bounds[rank] + slot[group]] = by_target
        self.targets = index[self.order]
        bounds = bounds.tolist()
        self.levels = list(zip(bounds[:-1], bounds[1:]))


def scatter(
    ufunc: np.ufunc,
    out: np.ndarray,
    plan: ScatterPlan,
    values: np.ndarray,
    rows: np.ndarray | None = None,
) -> None:
    """``ufunc.at(out, index, values[rows])``, bit for bit.

    ``plan`` is the :class:`ScatterPlan` of ``index``.  Edge ``e``
    contributes ``values[rows[e]]`` (``values[e]`` without ``rows``), so a
    caller scattering gathered rows need not materialise the gather.
    """
    take = plan.order if rows is None else rows[plan.order]
    width = math.prod(values.shape[1:])
    acc = out[plan.rows]
    done = 0
    for lo, hi in plan.levels:
        if (hi - lo) * width < _MIN_LEVEL_ELEMENTS:
            break
        head = acc[: hi - lo]
        ufunc(head, values[take[lo:hi]], out=head)
        done = hi
    out[plan.rows] = acc
    if done < len(take):
        # Rank order keeps every row's remaining edges in array order.
        ufunc.at(out, plan.targets[done:], values[take[done:]])


class BlockPlan:
    """The value-independent index work of one ``(src, dst)`` edge block.

    Args:
        src: per-edge row of the input representations.
        dst: per-edge row of the block's output (local index).
        num_dst: output rows of the block.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, num_dst: int) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.num_dst = int(num_dst)
        #: In-edges per output row (what ``np.add.at(counts, dst, 1.0)``
        #: counted).
        self.counts = np.bincount(self.dst, minlength=self.num_dst).astype(
            np.float64
        )
        #: Forward: neighbor rows scatter into their destination.
        self.into_dst = ScatterPlan(self.dst)

    @functools.cached_property
    def into_src(self) -> ScatterPlan:
        """Backward: output-row gradients scatter into their sources.

        Built on first use — a mini-batch layer-0 block, whose input
        gradient nothing reads, never sorts its sources.
        """
        return ScatterPlan(self.src)

    @classmethod
    def of_partition(
        cls, rows: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> BlockPlan:
        """The plan of one partition block of a full-graph sweep.

        ``rows`` are the sorted global ids the block computes and
        ``src``/``dst`` its global-id in-edges (every ``dst`` in ``rows``):
        sources stay global, destinations become block-local rows.
        """
        return cls(src, np.searchsorted(rows, dst), len(rows))
