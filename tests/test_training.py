"""Unit tests for the NumPy GraphSAGE model, including a gradient check."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph.generators import power_law_graph
from repro.sampling.neighbor import NeighborSampler
from repro.storage.feature_store import FeatureStore
from repro.training.graphsage import (
    GraphSAGE,
    label_projection,
    project_labels,
    synthetic_labels,
)


@pytest.fixture(scope="module")
def setup():
    graph = power_law_graph(200, 1500, seed=0)
    sampler = NeighborSampler(graph, (4, 4), seed=1)
    store = FeatureStore(200, 16)
    batch = sampler.sample(np.arange(24))
    features = store.fetch(batch.input_nodes)
    return graph, sampler, store, batch, features


class TestForward:
    def test_logit_shape(self, setup):
        _, _, _, batch, features = setup
        model = GraphSAGE(16, 8, 3, num_layers=2, seed=0)
        logits = model.forward(batch, features)
        assert logits.shape == (len(batch.seeds), 3)

    def test_deterministic(self, setup):
        _, _, _, batch, features = setup
        a = GraphSAGE(16, 8, 3, num_layers=2, seed=5).forward(batch, features)
        b = GraphSAGE(16, 8, 3, num_layers=2, seed=5).forward(batch, features)
        assert np.allclose(a, b)

    def test_layer_count_mismatch_rejected(self, setup):
        _, _, _, batch, features = setup
        model = GraphSAGE(16, 8, 3, num_layers=3, seed=0)
        with pytest.raises(ConfigError):
            model.forward(batch, features)

    def test_feature_row_mismatch_rejected(self, setup):
        _, _, _, batch, features = setup
        model = GraphSAGE(16, 8, 3, num_layers=2, seed=0)
        with pytest.raises(ConfigError):
            model.forward(batch, features[:-1])


class TestTraining:
    def test_loss_decreases(self, setup):
        _, sampler, store, _, _ = setup
        model = GraphSAGE(16, 16, 4, num_layers=2, lr=0.1, seed=0)
        seeds = np.arange(40)
        labels_all = synthetic_labels(store, np.arange(200), 4, seed=0)
        losses = []
        for _ in range(30):
            batch = sampler.sample(seeds)
            feats = store.fetch(batch.input_nodes)
            losses.append(
                model.train_step(batch, feats, labels_all[batch.seeds])
            )
        assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.8

    def test_label_shape_checked(self, setup):
        _, _, _, batch, features = setup
        model = GraphSAGE(16, 8, 3, num_layers=2, seed=0)
        with pytest.raises(ConfigError):
            model.train_step(batch, features, np.array([0]))

    def test_predict_shape(self, setup):
        _, _, _, batch, features = setup
        model = GraphSAGE(16, 8, 3, num_layers=2, seed=0)
        preds = model.predict(batch, features)
        assert preds.shape == batch.seeds.shape
        assert np.all((preds >= 0) & (preds < 3))


class TestGradients:
    @pytest.mark.parametrize("aggregator", ["mean", "gcn", "pool"])
    def test_matches_finite_differences(self, setup, aggregator):
        """Analytic gradients of the first layer's W_neigh vs central
        differences of the loss — the canonical backprop correctness check,
        run for every aggregator."""
        _, _, store, batch, features = setup
        labels = synthetic_labels(store, batch.seeds, 3, seed=0)

        def loss_at(model):
            logits = model.forward(batch, features)
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            n = len(labels)
            return -float(
                np.mean(np.log(probs[np.arange(n), labels] + 1e-12))
            )

        def fresh():
            return GraphSAGE(
                16, 6, 3, num_layers=2, aggregator=aggregator,
                lr=1.0, momentum=0.0, seed=2,
            )

        model = fresh()
        w_before = model.layers[0].w_neigh.copy()
        model.train_step(batch, features, labels)
        # With lr=1 and no momentum the update *is* the gradient.
        analytic = w_before - model.layers[0].w_neigh
        # Rebuild a fresh model to get clean parameters for the FD probe.
        model = fresh()
        eps = 1e-6
        rng = np.random.default_rng(0)
        for _ in range(5):
            i = rng.integers(16)
            j = rng.integers(6)
            model.layers[0].w_neigh[i, j] += eps
            up = loss_at(model)
            model.layers[0].w_neigh[i, j] -= 2 * eps
            down = loss_at(model)
            model.layers[0].w_neigh[i, j] += eps
            fd = (up - down) / (2 * eps)
            assert analytic[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-7)

    @pytest.mark.parametrize("aggregator", ["gcn", "pool"])
    def test_variant_aggregators_learn(self, setup, aggregator):
        _, sampler, store, _, _ = setup
        model = GraphSAGE(
            16, 16, 4, num_layers=2, aggregator=aggregator, lr=0.05, seed=0
        )
        seeds = np.arange(40)
        labels_all = synthetic_labels(store, np.arange(200), 4, seed=0)
        losses = []
        for _ in range(30):
            batch = sampler.sample(seeds)
            feats = store.fetch(batch.input_nodes)
            losses.append(
                model.train_step(batch, feats, labels_all[batch.seeds])
            )
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_unknown_aggregator_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GraphSAGE(16, 8, 3, aggregator="sum")


class TestSyntheticLabels:
    def test_deterministic(self, setup):
        _, _, store, _, _ = setup
        a = synthetic_labels(store, np.arange(50), 5, seed=1)
        b = synthetic_labels(store, np.arange(50), 5, seed=1)
        assert np.array_equal(a, b)

    def test_range(self, setup):
        _, _, store, _, _ = setup
        labels = synthetic_labels(store, np.arange(50), 5, seed=1)
        assert labels.min() >= 0 and labels.max() < 5

    def test_uses_multiple_classes(self, setup):
        _, _, store, _, _ = setup
        labels = synthetic_labels(store, np.arange(200), 4, seed=1)
        assert len(np.unique(labels)) >= 3

    def test_invalid_classes(self, setup):
        _, _, store, _, _ = setup
        with pytest.raises(ConfigError):
            synthetic_labels(store, np.arange(5), 0)

    def test_rows_in_hand_give_the_same_labels(self, setup):
        """Projection drawn once + features already fetched == the one-call
        form; the values are those of the commit before the split."""
        _, _, store, _, _ = setup
        ids = np.arange(40)[::-1]
        labels = project_labels(
            store.fetch(ids), label_projection(16, 5, seed=1)
        )
        assert np.array_equal(labels, synthetic_labels(store, ids, 5, seed=1))
        assert labels.dtype == np.int64
        assert labels.tolist() == [
            3, 0, 2, 0, 2, 3, 4, 4, 4, 3, 4, 3, 0, 3, 4, 4, 3, 4, 4, 3,
            1, 4, 4, 0, 4, 0, 1, 4, 1, 3, 4, 0, 2, 1, 0, 4, 3, 0, 0, 4,
        ]


class TestConstruction:
    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            GraphSAGE(0, 8, 3)
        with pytest.raises(ConfigError):
            GraphSAGE(16, 8, 3, lr=0.0)
        with pytest.raises(ConfigError):
            GraphSAGE(16, 8, 3, momentum=1.0)
