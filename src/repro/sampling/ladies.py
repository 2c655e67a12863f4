"""LADIES layer-wise importance sampling (Zou et al., NeurIPS'19).

Unlike neighborhood sampling, LADIES samples a *fixed budget of nodes per
layer*, shared by the whole mini-batch: candidates are the union of the
current layer's in-neighbors, and each candidate is drawn with probability
proportional to its layer-dependent importance — the squared norm of its
column in the row-normalized adjacency restricted to the current layer.
Because a candidate's importance sums ``1/deg(v)^2`` over the layer nodes
``v`` it feeds, we accumulate exactly that quantity per candidate.

The sampled layers are denser and flatter than GraphSAGE's trees, which is
why the paper evaluates it separately (Fig. 15).
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from ..graph.csr import CSRGraph
from ..utils import as_rng, sorted_unique
from .frontier import checked_seeds, row_positions
from .minibatch import MiniBatch, SampledLayer


class LadiesSampler:
    """Layer-wise importance sampler with a per-layer node budget.

    Args:
        graph: adjacency in in-neighbor orientation.
        layer_sizes: node budget per layer, ordered from the layer closest
            to the seeds outward (matching :class:`NeighborSampler`).
        seed: RNG seed or generator.
    """

    def __init__(
        self,
        graph: CSRGraph,
        layer_sizes: tuple[int, ...],
        *,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if len(layer_sizes) == 0:
            raise SamplingError("layer_sizes must contain at least one layer")
        if any(s <= 0 for s in layer_sizes):
            raise SamplingError(
                f"layer sizes must be positive, got {layer_sizes}"
            )
        self.graph = graph
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self._rng = as_rng(seed)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    def sample(self, seeds: np.ndarray) -> MiniBatch:
        """Sample a layered computational graph for one batch of seeds."""
        seeds = checked_seeds(self.graph, seeds)

        layers: list[SampledLayer] = []
        current = seeds
        all_nodes = [seeds]
        num_sampled = len(seeds)
        for budget in self.layer_sizes:
            chosen, src, dst = self._sample_layer(current, budget)
            layers.append(SampledLayer(src=src, dst=dst))
            num_sampled += len(chosen)
            all_nodes.append(chosen)
            # LADIES keeps the seed/previous nodes in the next layer so the
            # self path survives; the next layer conditions on both.
            current = sorted_unique(np.concatenate([current, chosen]))
        input_nodes = sorted_unique(np.concatenate(all_nodes))
        layers.reverse()
        return MiniBatch(
            seeds=seeds,
            layers=tuple(layers),
            input_nodes=input_nodes,
            num_sampled=num_sampled,
        )

    def _sample_layer(
        self, layer_nodes: np.ndarray, budget: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Importance-sample ``budget`` candidates feeding ``layer_nodes``.

        Returns:
            ``(chosen, src, dst)`` — the sampled candidate set and the edges
            from chosen candidates into the layer.
        """
        graph = self.graph
        starts = graph.indptr[layer_nodes]
        degrees = graph.indptr[layer_nodes + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty

        dst_all = np.repeat(layer_nodes, degrees)
        src_all = graph.indices[row_positions(starts, degrees)]

        # Importance of candidate u: sum over layer nodes v it feeds of
        # (1/deg(v))^2 — the squared column norm of the row-normalized
        # adjacency restricted to this layer.
        inv_deg = 1.0 / np.maximum(degrees, 1).astype(np.float64)
        edge_weight = np.repeat(inv_deg**2, degrees)
        candidates, inverse = np.unique(src_all, return_inverse=True)
        importance = np.zeros(len(candidates))
        np.add.at(importance, inverse, edge_weight)
        prob = importance / importance.sum()

        k = min(budget, len(candidates))
        chosen = self._rng.choice(candidates, size=k, replace=False, p=prob)
        chosen.sort()

        keep = np.isin(src_all, chosen)
        return chosen, src_all[keep], dst_all[keep]
