"""NumPy GraphSAGE with selectable aggregators (Hamilton et al., NIPS'17).

Each layer combines a node's own representation with an aggregate of its
sampled in-neighbors over the blocks of a
:class:`~repro.sampling.minibatch.MiniBatch`; the final layer emits class
logits for the seed nodes.  The blocks are message-flow graphs, as in DGL:
each layer computes only the rows the next one reads (:func:`frontiers`),
so the last layer computes the seeds alone.  Three aggregators are
provided:

* ``"mean"`` — ``h' = act(h @ W_self + mean_neigh(h) @ W_neigh + b)``,
  the paper's GraphSAGE configuration;
* ``"gcn"``  — ``h' = act(((h + sum_neigh(h)) / (deg + 1)) @ W_neigh + b)``,
  the GCN-style symmetric variant with a single weight matrix;
* ``"pool"`` — element-wise max over neighbors in place of the mean.

Forward and backward passes are implemented by hand so the library has
zero deep-learning dependencies, and gradients are exact (validated
against finite differences in the test suite, for every aggregator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..sampling.minibatch import MiniBatch, SampledLayer
from ..state import Stateful, array, children, guard, scalar
from ..storage.feature_store import FeatureStore
from ..utils import as_rng, sorted_unique
from .scatter import BlockPlan, scatter

#: Supported neighbor aggregators.
AGGREGATORS = ("mean", "gcn", "pool")


def _tensor(name: str):
    """A float64 tensor that must come back in the shape the model has."""

    def reshaped(self, restored):
        shape = getattr(self, name).shape
        return restored.shape != shape and f"expected shape {shape}"

    return array(name, np.float64, check=reshaped)


@dataclass
class _LayerParams(Stateful):
    """One layer's parameters and their SGD momentum buffers."""

    STATE = tuple(
        _tensor(name)
        for name in ("w_self", "w_neigh", "bias", "m_self", "m_neigh", "m_bias")
    )

    w_self: np.ndarray
    w_neigh: np.ndarray
    bias: np.ndarray
    m_self: np.ndarray = field(init=False)
    m_neigh: np.ndarray = field(init=False)
    m_bias: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.m_self = np.zeros_like(self.w_self)
        self.m_neigh = np.zeros_like(self.w_neigh)
        self.m_bias = np.zeros_like(self.bias)


class GraphSAGE(Stateful):
    """A GraphSAGE node classifier trained with momentum SGD.

    Args:
        in_dim: input feature dimension.
        hidden_dim: hidden dimension (128 in the paper's setup).
        num_classes: output classes.
        num_layers: GNN layers; must match the sampler's layer count.
        aggregator: ``"mean"`` (default), ``"gcn"`` or ``"pool"``.
        lr: learning rate.
        momentum: SGD momentum coefficient.
        seed: parameter initialization seed.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 3,
        *,
        aggregator: str = "mean",
        lr: float = 0.05,
        momentum: float = 0.9,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if min(in_dim, hidden_dim, num_classes, num_layers) <= 0:
            raise ConfigError("model dimensions must be positive")
        if aggregator not in AGGREGATORS:
            raise ConfigError(
                f"unknown aggregator {aggregator!r}; expected one of "
                f"{AGGREGATORS}"
            )
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        rng = as_rng(seed)
        self.num_layers = num_layers
        self.aggregator = aggregator
        self.lr = lr
        self.momentum = momentum
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        self.layers = [
            _LayerParams(
                w_self=_glorot(rng, dims[i], dims[i + 1]),
                w_neigh=_glorot(rng, dims[i], dims[i + 1]),
                bias=np.zeros(dims[i + 1], dtype=np.float64),
            )
            for i in range(num_layers)
        ]

    # ------------------------------------------------------------------
    # Forward / backward

    def forward(
        self, batch: MiniBatch, features: np.ndarray
    ) -> np.ndarray:
        """Class logits for the batch's seed nodes."""
        logits, _ = self._forward_cached(batch, features)
        return logits

    def _forward_cached(self, batch: MiniBatch, features: np.ndarray):
        """Logits of the seeds, computing each layer on its frontier only.

        Layer ``l`` reads the rows layer ``l - 1`` computed (the batch's
        input nodes for layer 0) and computes only the rows layer ``l + 1``
        reads (:func:`frontiers`).  The layer-0 scatter reads the feature
        block in its own dtype; only the block's own rows are cast to
        float64, which is exact.
        """
        if batch.num_layers != self.num_layers:
            raise ConfigError(
                f"batch has {batch.num_layers} sampled layers, model expects "
                f"{self.num_layers}"
            )
        h = np.asarray(features)
        if h.dtype.kind != "f":
            h = h.astype(np.float64)
        if h.shape[0] != batch.num_input_nodes:
            raise ConfigError(
                "features must have one row per input node of the batch"
            )
        prev = batch.input_nodes
        caches = []
        for li, (layer, params, rows) in enumerate(
            zip(batch.layers, self.layers, frontiers(batch))
        ):
            plan = _block_plan(layer, prev, rows, li)
            own_idx = _positions(prev, rows, li, "frontier")
            own = h[own_idx].astype(np.float64, copy=False)
            agg, agg_cache = self._aggregate(h, own, plan)
            if self.aggregator == "gcn":
                z = agg @ params.w_neigh + params.bias
            else:
                z = own @ params.w_self + agg @ params.w_neigh + params.bias
            is_last = li == self.num_layers - 1
            out = z if is_last else np.maximum(z, 0.0)
            caches.append((h, own, own_idx, agg, z, plan, agg_cache))
            h, prev = out, rows
        seed_idx = np.searchsorted(prev, batch.seeds)
        return h[seed_idx], (caches, seed_idx, h.shape)

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
            h, own, own_idx, agg, z, plan, agg_cache = caches[li]
            is_last = li == self.num_layers - 1
            dz = d_h if is_last else d_h * (z > 0.0)
            gcn = self.aggregator == "gcn"
            grads[li] = {
                "w_self": np.zeros_like(params.w_self) if gcn else own.T @ dz,
                "w_neigh": agg.T @ dz,
                "bias": dz.sum(axis=0),
            }
            if li == 0:
                # The input layer's d_h would be a gradient with respect
                # to the features, which nothing reads.
                break
            d_agg = dz @ params.w_neigh.T
            # The input gradient lives on the previous frontier, ``h``'s rows.
            d_h = np.zeros_like(h)
            if gcn:
                # Self path: every node contributes itself once.
                d_h[own_idx] += d_agg / agg_cache[:, None]
            else:
                d_h[own_idx] = dz @ params.w_self.T
            self._aggregate_backward(d_agg, d_h, h, agg, plan, agg_cache)
        return loss, grads

    def apply_gradients(self, grads: list[dict]) -> None:
        """One momentum-SGD step from per-layer gradients.

        ``train_step`` is exactly ``gradients`` + ``apply_gradients``; the
        split exists so a fleet can average gradients across replicas
        before stepping.
        """
        if len(grads) != self.num_layers:
            raise ConfigError(
                f"got gradients for {len(grads)} layers, model has "
                f"{self.num_layers}"
            )
        for params, g in zip(self.layers, grads):
            self._apply(params, g["w_self"], g["w_neigh"], g["bias"])

    def train_step(
        self,
        batch: MiniBatch,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> float:
        """One SGD step on softmax cross-entropy; returns the batch loss."""
        loss, grads = self.gradients(batch, features, labels)
        self.apply_gradients(grads)
        return loss

    # ------------------------------------------------------------------
    # Blocked full-graph forward / backward (partition sweeps)

    def layer_forward_block(
        self,
        li: int,
        h_prev: np.ndarray,
        rows: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        plan: BlockPlan | None = None,
    ) -> np.ndarray:
        """Layer ``li`` outputs for one partition of a full-graph sweep.

        Args:
            li: layer index.
            h_prev: previous-layer representations for the *whole* graph
                (``num_nodes x d_in``); the sweep only reads the partition
                rows plus its halo, but indexing stays global.  Layer 0's
                float32 features are read as they are: only the block's
                own rows are cast, and the scatter widens the rest exactly
                as it adds.
            rows: sorted global node ids computed by this step.
            src/dst: global-id in-edges with every ``dst`` in ``rows``.
            plan: ``BlockPlan.of_partition(rows, src, dst)`` when the
                caller keeps one (a static graph's blocks never change);
                built here otherwise.

        Returns:
            ``len(rows) x d_out`` block of the layer's output.  Because a
            node's aggregation involves only its own in-edges (kept in CSR
            order), sweeping partitions reproduces the monolithic
            full-graph forward exactly.
        """
        params = self.layers[li]
        if plan is None:
            plan = BlockPlan.of_partition(rows, src, dst)
        own = h_prev[rows].astype(np.float64, copy=False)
        agg, _ = self._aggregate(h_prev, own, plan)
        if self.aggregator == "gcn":
            z = agg @ params.w_neigh + params.bias
        else:
            z = own @ params.w_self + agg @ params.w_neigh + params.bias
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
        d_h_prev: np.ndarray | None,
        grads: dict,
        plan: BlockPlan | None = None,
    ) -> None:
        """Backward of :meth:`layer_forward_block` for one partition.

        Accumulates this block's parameter gradients into ``grads``
        (``w_self``/``w_neigh``/``bias`` arrays, summed across partitions)
        and scatters input-side gradients into the full-graph buffer
        ``d_h_prev`` — including the halo rows owned by other partitions,
        which is the backward half of the halo exchange.  Pass
        ``d_h_prev=None`` when nothing reads the input gradient (layer 0:
        it would be a gradient with respect to the features) and only the
        parameter gradients are computed.

        ``h_out_rows`` is this block's forward output (for the ReLU mask);
        pass ``None`` for the last layer, whose activation is linear.
        The aggregation itself is *recomputed* from ``h_prev`` rather than
        cached — the activation-offload design stores only the layer
        outputs.
        """
        params = self.layers[li]
        if plan is None:
            plan = BlockPlan.of_partition(rows, src, dst)
        dz = d_out if h_out_rows is None else d_out * (h_out_rows > 0.0)
        own = h_prev[rows].astype(np.float64, copy=False)
        agg, agg_cache = self._aggregate(h_prev, own, plan)
        grads["w_neigh"] += agg.T @ dz
        grads["bias"] += dz.sum(axis=0)
        gcn = self.aggregator == "gcn"
        if not gcn:
            grads["w_self"] += own.T @ dz
        if d_h_prev is None:
            return
        d_agg = dz @ params.w_neigh.T
        if gcn:
            d_h_prev[rows] += d_agg / agg_cache[:, None]
        else:
            d_h_prev[rows] += dz @ params.w_self.T
        self._aggregate_backward(
            d_agg, d_h_prev, h_prev, agg, plan, agg_cache
        )

    def zero_gradients(self) -> list[dict]:
        """Zero-filled per-layer gradient dicts for sweep accumulation."""
        return [
            {
                "w_self": np.zeros_like(p.w_self),
                "w_neigh": np.zeros_like(p.w_neigh),
                "bias": np.zeros_like(p.bias),
            }
            for p in self.layers
        ]

    # ------------------------------------------------------------------
    # Aggregators

    def _aggregate(self, h, own, plan):
        """Neighbor aggregation over one block.

        ``h`` holds the representations ``plan.src`` indexes and ``own``
        the block's output rows' own representations (``h`` at the
        layer's frontier for a mini-batch block, ``h[rows]`` for a
        partition of the full graph) in float64; ``h`` may be a float32
        feature block, which the scatter widens exactly as it adds.
        Returns ``(agg, backward cache)``.
        """
        if self.aggregator == "mean":
            agg = np.zeros((plan.num_dst, h.shape[1]))
            scatter(np.add, agg, plan.into_dst, h, plan.src)
            safe = np.maximum(plan.counts, 1.0)
            agg /= safe[:, None]
            return agg, safe
        if self.aggregator == "gcn":
            agg = own.copy()
            scatter(np.add, agg, plan.into_dst, h, plan.src)
            counts = plan.counts + 1.0
            agg /= counts[:, None]
            return agg, counts
        # pool: element-wise max over neighbors; empty neighborhoods
        # aggregate to zero.
        agg = np.full((plan.num_dst, h.shape[1]), -np.inf)
        scatter(np.maximum, agg, plan.into_dst, h, plan.src)
        empty = np.isinf(agg).all(axis=1)
        agg[empty] = 0.0
        return agg, empty

    def _aggregate_backward(
        self, d_agg, d_h, h, agg, plan, agg_cache
    ) -> None:
        """Route aggregate gradients back along the edges into ``d_h``
        (the caller has already added the self path)."""
        if self.aggregator in ("mean", "gcn"):
            scaled = d_agg / agg_cache[:, None]  # agg_cache: row counts
            scatter(np.add, d_h, plan.into_src, scaled, plan.dst)
            return
        # pool: the gradient flows to the arg-max source(s) per dimension,
        # split evenly among ties (the exact subgradient).
        winners = h[plan.src] == agg[plan.dst]
        tie_counts = np.zeros_like(agg)
        scatter(np.add, tie_counts, plan.into_dst, winners.astype(np.float64))
        safe_ties = np.maximum(tie_counts, 1.0)
        routed = winners * (d_agg / safe_ties)[plan.dst]
        scatter(np.add, d_h, plan.into_src, routed)

    # ------------------------------------------------------------------

    def _apply(self, params, g_self, g_neigh, g_bias) -> None:
        for buf, grad, weight in (
            (params.m_self, g_self, params.w_self),
            (params.m_neigh, g_neigh, params.w_neigh),
            (params.m_bias, g_bias, params.bias),
        ):
            buf *= self.momentum
            buf += grad
            weight -= self.lr * buf

    def predict(self, batch: MiniBatch, features: np.ndarray) -> np.ndarray:
        """Predicted class per seed node."""
        return np.argmax(self.forward(batch, features), axis=1)

    # ------------------------------------------------------------------
    # Checkpointing

    #: All weights and SGD momentum buffers (copied, so mutating the model
    #: afterwards does not invalidate a snapshot already captured).  ``lr``
    #: and ``momentum`` joined the layout late: a snapshot without them
    #: keeps the constructor's.
    STATE = (
        guard("num_layers"),
        guard("aggregator"),
        scalar("lr", float, late=True),
        scalar("momentum", float, late=True),
        children("layers"),
    )


def frontiers(batch: MiniBatch) -> list[np.ndarray]:
    """The sorted global ids each layer computes, input layer first.

    DGL's message-flow-graph contract: the last layer computes the seeds,
    and every other layer the rows the next layer reads — its own rows
    (the self path) and the next block's sources.
    """
    rows = sorted_unique(batch.seeds)
    out = [rows]
    for layer in batch.layers[:0:-1]:
        rows = sorted_unique(np.concatenate([rows, layer.src]))
        out.append(rows)
    return out[::-1]


def _block_plan(
    layer: SampledLayer, prev: np.ndarray, rows: np.ndarray, li: int
) -> BlockPlan:
    """Layer ``li``'s block indexed into the rows it reads (``prev``) and
    the rows it computes (``rows``).

    An edge whose ``dst`` is not among ``rows`` feeds a row nothing reads:
    it is dropped, which is exact — every kept row meets its edges in the
    block's order.
    """
    src, dst = layer.src, layer.dst
    at = np.searchsorted(rows, dst)
    kept = _found(rows, dst, at)
    if not kept.all():
        src, at = src[kept], at[kept]
    return BlockPlan(_positions(prev, src, li, "src"), at, len(rows))


def _found(ids: np.ndarray, wanted: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Which of ``wanted`` sit at their ``searchsorted`` position ``at``."""
    if not len(ids):
        return np.zeros(len(wanted), dtype=bool)
    return ids[np.minimum(at, len(ids) - 1)] == wanted


def _positions(
    ids: np.ndarray, wanted: np.ndarray, li: int, what: str
) -> np.ndarray:
    """Positions of ``wanted`` in the sorted ``ids``, or :class:`ConfigError`
    when one is missing (``searchsorted`` would silently pick a neighbor)."""
    at = np.searchsorted(ids, wanted)
    missing = wanted[~_found(ids, wanted, at)]
    if len(missing):
        raise ConfigError(
            f"layer {li}: {len(missing)} {what} id(s), first "
            f"{int(missing[0])}, are not among the rows the layer reads "
            "(layer 0 reads the batch's input_nodes; every layer above "
            "it, the rows the layer below computed)"
        )
    return at


def average_gradients(grads_list: list[list[dict]]) -> list[dict]:
    """All-reduce: element-wise mean of per-replica gradient lists.

    The summation order is the order of ``grads_list`` — callers that need
    bit-identical replays must present replicas in a stable order (the
    fleet uses ascending worker index).
    """
    if not grads_list:
        raise ConfigError("average_gradients needs at least one replica")
    num_layers = len(grads_list[0])
    if any(len(g) != num_layers for g in grads_list):
        raise ConfigError("replica gradient lists disagree on layer count")
    scale = 1.0 / len(grads_list)
    averaged = []
    for li in range(num_layers):
        layer = {}
        for name in ("w_self", "w_neigh", "bias"):
            total = grads_list[0][li][name].copy()
            for replica in grads_list[1:]:
                total += replica[li][name]
            layer[name] = total * scale
        averaged.append(layer)
    return averaged


def label_projection(
    feature_dim: int, num_classes: int, *, seed: int = 0
) -> np.ndarray:
    """The fixed random linear map behind :func:`synthetic_labels`."""
    if num_classes <= 0:
        raise ConfigError("num_classes must be positive")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((feature_dim, num_classes))


def project_labels(features: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """Labels of nodes whose feature rows are already in hand."""
    feats = np.asarray(features, dtype=np.float64)
    return np.argmax(feats @ projection, axis=1).astype(np.int64)


def synthetic_labels(
    store: FeatureStore,
    node_ids: np.ndarray,
    num_classes: int,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic learnable labels derived from the true features.

    The label of a node is the argmax of a fixed random linear projection of
    its feature vector, so a capable model can fit the mapping — giving the
    training examples a real, decreasing loss signal.  A caller that holds
    the feature rows, or labels many batches, draws the
    :func:`label_projection` once and calls :func:`project_labels`.
    """
    projection = label_projection(store.feature_dim, num_classes, seed=seed)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    return project_labels(store.fetch(node_ids), projection)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy loss and its logit gradients.

    Shared between the mini-batch :meth:`GraphSAGE.gradients` path and
    the full-graph sweep trainer so both optimize the identical
    objective.  Note ``dlogits`` reuses the softmax buffer.
    """
    probs = _softmax(logits)
    n = len(labels)
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + 1e-12)))
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))
