"""Unit tests for the heterogeneous and ClusterGCN samplers."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph.datasets import load_scaled
from repro.graph.generators import power_law_graph
from repro.graph.hetero import stack_types
from repro.graph.partition import partition_graph
from repro.sampling.cluster import ClusterSampler
from repro.sampling.hetero_neighbor import HeteroNeighborSampler
from repro.storage.feature_store import FeatureStore
from repro.training.graphsage import GraphSAGE, synthetic_labels


@pytest.fixture(scope="module")
def hetero():
    csr = power_law_graph(300, 2400, seed=4)
    return stack_types({"paper": 150, "author": 140, "institute": 10}, csr)


class TestHeteroNeighborSampler:
    def test_uniform_int_fanout(self, hetero):
        sampler = HeteroNeighborSampler(hetero, (4, 4), seed=0)
        batch = sampler.sample(np.arange(20))
        assert batch.num_layers == 2
        assert batch.num_input_nodes >= 20

    def test_per_type_caps_enforced(self, hetero):
        caps = {"paper": 3, "author": 1}
        sampler = HeteroNeighborSampler(hetero, (caps,), seed=1)
        batch = sampler.sample(np.arange(30))
        layer = batch.layers[0]
        types = hetero.type_of(layer.src)
        for dst in np.unique(layer.dst):
            mask = layer.dst == dst
            by_type = np.bincount(types[mask], minlength=hetero.num_types)
            assert by_type[0] <= 3   # paper
            assert by_type[1] <= 1   # author
            assert by_type[2] == 0   # institute: not requested

    def test_edges_exist(self, hetero):
        sampler = HeteroNeighborSampler(hetero, (5,), seed=2)
        batch = sampler.sample(np.arange(15))
        layer = batch.layers[0]
        for s, d in zip(layer.src[:100], layer.dst[:100]):
            assert s in hetero.csr.neighbors(int(d))

    def test_no_duplicate_edges(self, hetero):
        sampler = HeteroNeighborSampler(hetero, (6, 6), seed=3)
        batch = sampler.sample(np.arange(25))
        for layer in batch.layers:
            keys = layer.dst * hetero.num_nodes + layer.src
            assert len(np.unique(keys)) == len(keys)

    def test_deterministic(self, hetero):
        a = HeteroNeighborSampler(hetero, (4, 4), seed=7).sample(np.arange(10))
        b = HeteroNeighborSampler(hetero, (4, 4), seed=7).sample(np.arange(10))
        assert np.array_equal(a.input_nodes, b.input_nodes)

    def test_unknown_type_rejected(self, hetero):
        with pytest.raises(SamplingError):
            HeteroNeighborSampler(hetero, ({"venue": 2},))

    def test_negative_cap_rejected(self, hetero):
        with pytest.raises(SamplingError):
            HeteroNeighborSampler(hetero, ({"paper": -1},))

    def test_empty_fanouts_rejected(self, hetero):
        with pytest.raises(SamplingError):
            HeteroNeighborSampler(hetero, ())

    def test_sampling_work_accounted(self, hetero):
        sampler = HeteroNeighborSampler(hetero, (4,), seed=0)
        batch = sampler.sample(np.arange(10))
        assert batch.num_sampled == len(batch.seeds) + batch.num_edges


class TestClusterSampler:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = power_law_graph(400, 3200, seed=6)
        partition = partition_graph(graph, 8, seed=0)
        return graph, partition

    def test_batch_is_induced_subgraph(self, setup):
        graph, partition = setup
        sampler = ClusterSampler(
            graph, partition, clusters_per_batch=2, num_layers=2, seed=0
        )
        batch = sampler.sample(np.array([0, 1]))
        members = set(np.concatenate(
            [partition.members(0), partition.members(1)]
        ).tolist())
        assert set(batch.input_nodes.tolist()) == members
        layer = batch.layers[0]
        for s, d in zip(layer.src, layer.dst):
            assert int(s) in members and int(d) in members
            assert s in graph.neighbors(int(d))

    def test_no_cross_cluster_edges(self, setup):
        graph, partition = setup
        sampler = ClusterSampler(graph, partition, seed=0)
        batch = sampler.sample(np.array([3]))
        layer = batch.layers[0]
        assert np.all(partition.parts[layer.src] == 3)
        assert np.all(partition.parts[layer.dst] == 3)

    def test_layers_share_edge_set(self, setup):
        graph, partition = setup
        sampler = ClusterSampler(graph, partition, num_layers=3, seed=0)
        batch = sampler.sample(np.array([1]))
        assert batch.num_layers == 3
        first = batch.layers[0]
        for layer in batch.layers[1:]:
            assert np.array_equal(layer.src, first.src)

    def test_random_cluster_choice(self, setup):
        graph, partition = setup
        sampler = ClusterSampler(
            graph, partition, clusters_per_batch=2, seed=0
        )
        batch = sampler.sample()
        chosen = np.unique(partition.parts[batch.input_nodes])
        assert len(chosen) == 2

    def test_invalid_args(self, setup):
        graph, partition = setup
        with pytest.raises(SamplingError):
            ClusterSampler(graph, partition, clusters_per_batch=0)
        with pytest.raises(SamplingError):
            ClusterSampler(graph, partition, clusters_per_batch=99)
        with pytest.raises(SamplingError):
            ClusterSampler(graph, partition, num_layers=0)
        sampler = ClusterSampler(graph, partition, seed=0)
        with pytest.raises(SamplingError):
            sampler.sample(np.array([100]))

    def test_graphsage_learns_on_cluster_batches(self):
        """The scheme the paper does not evaluate (Section 4.7) is still
        supported: 20 cluster batches of an IGB-tiny replica train
        GraphSAGE to finite, falling losses."""
        dataset = load_scaled("IGB-tiny", 0.03, seed=0)
        partition = partition_graph(dataset.graph, 16, seed=0)
        sampler = ClusterSampler(
            dataset.graph, partition, clusters_per_batch=2, num_layers=2,
            seed=1,
        )
        store = FeatureStore(dataset.num_nodes, dataset.feature_dim)
        # Cluster batches are few and large: a low rate keeps full-batch
        # updates stable.
        model = GraphSAGE(
            dataset.feature_dim, 32, 4, num_layers=2, lr=0.01, seed=0
        )
        losses = []
        for _ in range(20):
            batch = sampler.sample()
            features = store.fetch(batch.input_nodes)
            labels = synthetic_labels(store, batch.seeds, 4, seed=0)
            losses.append(model.train_step(batch, features, labels))
        losses = np.array(losses)
        assert np.all(np.isfinite(losses))
        assert losses[-5:].mean() < losses[:5].mean()
