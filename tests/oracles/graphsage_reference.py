"""Reference oracle: GraphSAGE's ``ufunc.at`` kernels, every row computed.

These are the forward/backward bodies of ``repro.training.GraphSAGE`` as
they shipped before the rank-peeling kernels — twelve ``np.add.at`` /
``np.maximum.at`` call sites over the mini-batch and partition-block paths
— kept verbatim as the *specification* of the kernels in
``repro.training.scatter``: one edge at a time, in array order.

The mini-batch path here is also the one *unpruned* forward/backward: it
runs every layer over every input node (the shipped model computes only
the rows the next layer reads) and always computes the layer-0 input
gradient the production code skips (nothing reads it), so
``layer_backward_block`` here requires a ``d_h_prev`` buffer.
``tests/test_graphsage_differential.py`` drives both with the same
parameters and blocks: partition blocks must match bit for bit, the
pruned mini-batch path within a stated tolerance (bit for bit when it
prunes no row), and a fleet's losses within 1e-9 relative of a replay
through this class.  ``tests/test_fullgraph.py`` takes its mini-batch
step as the unblocked full-graph step a sweep must reproduce.

Test-only: nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sampling.minibatch import MiniBatch
from repro.training.graphsage import GraphSAGE, softmax_cross_entropy


class ReferenceGraphSAGE(GraphSAGE):
    """``GraphSAGE`` with the edge-at-a-time kernels (same parameters)."""

    def _forward_cached(self, batch: MiniBatch, features: np.ndarray):
        if batch.num_layers != self.num_layers:
            raise ConfigError(
                f"batch has {batch.num_layers} sampled layers, model expects "
                f"{self.num_layers}"
            )
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != batch.num_input_nodes:
            raise ConfigError(
                "features must have one row per input node of the batch"
            )
        nodes = batch.input_nodes
        h = features
        caches = []
        for li, (layer, params) in enumerate(zip(batch.layers, self.layers)):
            src_idx = np.searchsorted(nodes, layer.src)
            dst_idx = np.searchsorted(nodes, layer.dst)
            agg, agg_cache = self._aggregate(h, src_idx, dst_idx, len(nodes))
            if self.aggregator == "gcn":
                z = agg @ params.w_neigh + params.bias
            else:
                z = h @ params.w_self + agg @ params.w_neigh + params.bias
            is_last = li == self.num_layers - 1
            out = z if is_last else np.maximum(z, 0.0)
            caches.append((h, agg, z, src_idx, dst_idx, agg_cache))
            h = out
        seed_idx = np.searchsorted(nodes, batch.seeds)
        logits = h[seed_idx]
        return logits, (caches, seed_idx, h.shape)

    def gradients(
        self,
        batch: MiniBatch,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> tuple[float, list[dict]]:
        """Softmax cross-entropy loss and per-layer parameter gradients.

        Nothing is applied: the caller owns the optimizer step.  This is
        the building block of data-parallel training — each replica
        computes its local gradients, an all-reduce averages them (see
        :func:`average_gradients`), and one :meth:`apply_gradients` call
        per replica keeps every copy of the model bit-identical.

        Returns:
            ``(loss, grads)`` where ``grads[i]`` holds the ``w_self``,
            ``w_neigh`` and ``bias`` gradients of layer ``i``.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != batch.seeds.shape:
            raise ConfigError("labels must align with the batch's seeds")
        logits, (caches, seed_idx, out_shape) = self._forward_cached(
            batch, features
        )
        loss, dlogits = softmax_cross_entropy(logits, labels)

        grads: list[dict] = [{} for _ in range(self.num_layers)]
        d_h = np.zeros(out_shape)
        d_h[seed_idx] = dlogits
        for li in range(self.num_layers - 1, -1, -1):
            params = self.layers[li]
            h, agg, z, src_idx, dst_idx, agg_cache = caches[li]
            is_last = li == self.num_layers - 1
            dz = d_h if is_last else d_h * (z > 0.0)
            g_neigh = agg.T @ dz
            g_bias = dz.sum(axis=0)
            d_agg = dz @ params.w_neigh.T
            if self.aggregator == "gcn":
                g_self = np.zeros_like(params.w_self)
                d_h = np.zeros_like(h)
            else:
                g_self = h.T @ dz
                d_h = dz @ params.w_self.T
            self._aggregate_backward(
                d_agg, d_h, h, agg, src_idx, dst_idx, agg_cache
            )
            grads[li] = {
                "w_self": g_self, "w_neigh": g_neigh, "bias": g_bias
            }
        return loss, grads

    def layer_forward_block(
        self,
        li: int,
        h_prev: np.ndarray,
        rows: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> np.ndarray:
        """Layer ``li`` outputs for one partition of a full-graph sweep.

        Args:
            li: layer index.
            h_prev: previous-layer representations for the *whole* graph
                (``num_nodes x d_in``); the sweep only reads the partition
                rows plus its halo, but indexing stays global.
            rows: sorted global node ids computed by this step.
            src/dst: global-id in-edges with every ``dst`` in ``rows``.

        Returns:
            ``len(rows) x d_out`` block of the layer's output.  Because a
            node's aggregation involves only its own in-edges (kept in CSR
            order), sweeping partitions reproduces the monolithic
            full-graph forward exactly.
        """
        params = self.layers[li]
        h_prev = np.asarray(h_prev, dtype=np.float64)
        local_dst = np.searchsorted(rows, dst)
        agg, _ = self._aggregate_block(h_prev, rows, src, local_dst)
        if self.aggregator == "gcn":
            z = agg @ params.w_neigh + params.bias
        else:
            z = (
                h_prev[rows] @ params.w_self
                + agg @ params.w_neigh
                + params.bias
            )
        is_last = li == self.num_layers - 1
        return z if is_last else np.maximum(z, 0.0)

    def layer_backward_block(
        self,
        li: int,
        h_prev: np.ndarray,
        h_out_rows: np.ndarray | None,
        rows: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        d_out: np.ndarray,
        d_h_prev: np.ndarray,
        grads: dict,
    ) -> None:
        """Backward of :meth:`layer_forward_block` for one partition.

        Accumulates this block's parameter gradients into ``grads``
        (``w_self``/``w_neigh``/``bias`` arrays, summed across partitions)
        and scatters input-side gradients into the full-graph buffer
        ``d_h_prev`` — including the halo rows owned by other partitions,
        which is the backward half of the halo exchange.

        ``h_out_rows`` is this block's forward output (for the ReLU mask);
        pass ``None`` for the last layer, whose activation is linear.
        The aggregation itself is *recomputed* from ``h_prev`` rather than
        cached — the activation-offload design stores only the layer
        outputs.
        """
        params = self.layers[li]
        h_prev = np.asarray(h_prev, dtype=np.float64)
        local_dst = np.searchsorted(rows, dst)
        dz = d_out if h_out_rows is None else d_out * (h_out_rows > 0.0)
        agg, agg_cache = self._aggregate_block(h_prev, rows, src, local_dst)
        grads["w_neigh"] += agg.T @ dz
        grads["bias"] += dz.sum(axis=0)
        d_agg = dz @ params.w_neigh.T
        if self.aggregator == "gcn":
            counts = agg_cache
            d_h_prev[rows] += d_agg / counts[:, None]
            if len(src):
                scaled = d_agg[local_dst] / counts[local_dst][:, None]
                np.add.at(d_h_prev, src, scaled)
            return
        grads["w_self"] += h_prev[rows].T @ dz
        d_h_prev[rows] += dz @ params.w_self.T
        self._aggregate_backward(
            d_agg, d_h_prev, h_prev, agg, src, local_dst, agg_cache
        )

    def _aggregate_block(self, h_prev, rows, src, local_dst):
        """Aggregation over a partition block; global src, local dst."""
        n = len(rows)
        if self.aggregator == "gcn":
            # The GCN aggregate seeds with the block's own rows, which the
            # shared kernel cannot express with a full-graph ``h``.
            agg = h_prev[rows].copy()
            counts = np.ones(n)
            if len(src):
                np.add.at(agg, local_dst, h_prev[src])
                np.add.at(counts, local_dst, 1.0)
            agg /= counts[:, None]
            return agg, counts
        return self._aggregate(h_prev, src, local_dst, n)

    def _aggregate(self, h, src_idx, dst_idx, n):
        """Neighbor aggregation; returns ``(agg, backward cache)``."""
        if self.aggregator == "mean":
            agg = np.zeros((n, h.shape[1]))
            counts = np.zeros(n)
            if len(src_idx):
                np.add.at(agg, dst_idx, h[src_idx])
                np.add.at(counts, dst_idx, 1.0)
            safe = np.maximum(counts, 1.0)
            agg /= safe[:, None]
            return agg, safe
        if self.aggregator == "gcn":
            agg = h.copy()
            counts = np.ones(n)
            if len(src_idx):
                np.add.at(agg, dst_idx, h[src_idx])
                np.add.at(counts, dst_idx, 1.0)
            agg /= counts[:, None]
            return agg, counts
        # pool: element-wise max over neighbors; empty neighborhoods
        # aggregate to zero.
        agg = np.full((n, h.shape[1]), -np.inf)
        if len(src_idx):
            np.maximum.at(agg, dst_idx, h[src_idx])
        empty = np.isinf(agg).all(axis=1)
        agg[empty] = 0.0
        return agg, empty

    def _aggregate_backward(
        self, d_agg, d_h, h, agg, src_idx, dst_idx, agg_cache
    ) -> None:
        """Route aggregate gradients back to node representations."""
        if self.aggregator == "mean":
            counts = agg_cache
            if len(src_idx):
                scaled = d_agg[dst_idx] / counts[dst_idx][:, None]
                np.add.at(d_h, src_idx, scaled)
            return
        if self.aggregator == "gcn":
            counts = agg_cache
            # Self path: every node contributes itself once.
            d_h += d_agg / counts[:, None]
            if len(src_idx):
                scaled = d_agg[dst_idx] / counts[dst_idx][:, None]
                np.add.at(d_h, src_idx, scaled)
            return
        # pool: the gradient flows to the arg-max source(s) per dimension,
        # split evenly among ties (the exact subgradient).
        if not len(src_idx):
            return
        winners = h[src_idx] == agg[dst_idx]
        tie_counts = np.zeros_like(agg)
        np.add.at(tie_counts, dst_idx, winners.astype(np.float64))
        safe_ties = np.maximum(tie_counts, 1.0)
        routed = winners * (d_agg[dst_idx] / safe_ties[dst_idx])
        np.add.at(d_h, src_idx, routed)
