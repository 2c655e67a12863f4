"""Unit tests for the dataset registry and scaled replicas."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph.datasets import (
    DATASETS,
    get_dataset_spec,
    load_scaled,
)


class TestRegistry:
    def test_all_paper_datasets_present(self):
        """Tables 2 and 3 list eight datasets."""
        expected = {
            "ogbn-papers100M",
            "IGB-Full",
            "MAG240M",
            "IGBH-Full",
            "IGB-tiny",
            "IGB-small",
            "IGB-medium",
            "IGB-large",
        }
        assert expected == set(DATASETS)

    def test_table2_igb_full_counts(self):
        spec = get_dataset_spec("IGB-Full")
        assert spec.num_nodes == 269_364_174
        assert spec.num_edges == 3_995_777_033
        assert spec.feature_dim == 1024

    def test_table2_papers100m_counts(self):
        spec = get_dataset_spec("ogbn-papers100M")
        assert spec.num_nodes == 111_059_956
        assert spec.feature_dim == 128

    def test_heterogeneous_flags(self):
        assert get_dataset_spec("MAG240M").heterogeneous
        assert get_dataset_spec("IGBH-Full").heterogeneous
        assert not get_dataset_spec("IGB-Full").heterogeneous

    def test_table4_feature_dominance(self):
        """Table 4: features are the vast majority for IGB-class datasets."""
        for name in ("IGB-Full", "IGBH-Full"):
            spec = get_dataset_spec(name)
            share = spec.feature_data_bytes / spec.total_bytes
            assert share > 0.90

    def test_papers100m_feature_share_is_lower(self):
        """Table 4: ogbn-papers100M features are ~68% of the total — much
        lower than the IGB datasets.  Our leaner structure encoding (single
        CSR, no labels) puts the share slightly higher (~80%), but the
        qualitative gap to the >90% IGB datasets must hold."""
        spec = get_dataset_spec("ogbn-papers100M")
        share = spec.feature_data_bytes / spec.total_bytes
        assert 0.4 < share < 0.85
        assert share < 0.90

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            get_dataset_spec("IGB-gigantic")


class TestLoadScaled:
    def test_preserves_avg_degree(self):
        spec = get_dataset_spec("IGB-tiny")
        ds = load_scaled("IGB-tiny", 0.1, seed=0)
        assert ds.num_edges / ds.num_nodes == pytest.approx(
            spec.avg_degree, rel=0.05
        )

    def test_min_nodes_floor(self):
        ds = load_scaled("IGB-tiny", 1e-9, seed=0, min_nodes=1000)
        assert ds.num_nodes == 1000

    def test_deterministic(self):
        a = load_scaled("IGB-tiny", 0.01, seed=1)
        b = load_scaled("IGB-tiny", 0.01, seed=1)
        assert np.array_equal(a.graph.indices, b.graph.indices)
        assert np.array_equal(a.train_ids, b.train_ids)

    def test_train_ids_valid_and_sorted(self, tiny_dataset):
        ids = tiny_dataset.train_ids
        assert len(ids) >= 1
        assert ids.min() >= 0 and ids.max() < tiny_dataset.num_nodes
        assert np.all(np.diff(ids) > 0)

    def test_hetero_replica_has_types(self):
        ds = load_scaled("MAG240M", 1e-5, seed=0)
        assert ds.hetero is not None
        assert set(ds.hetero.type_names) == {"paper", "author", "institution"}
        assert ds.hetero.num_nodes == ds.num_nodes

    def test_hetero_train_ids_come_from_primary_type(self):
        ds = load_scaled("MAG240M", 1e-5, seed=0)
        papers = ds.hetero.nodes_of_type("paper")
        assert np.all(np.isin(ds.train_ids, papers))

    def test_homogeneous_replica_has_no_hetero(self, tiny_dataset):
        assert tiny_dataset.hetero is None

    def test_sizes_match_generated_graph(self, tiny_dataset):
        assert tiny_dataset.feature_data_bytes == (
            tiny_dataset.num_nodes * tiny_dataset.feature_dim * 4
        )
        assert tiny_dataset.total_bytes == (
            tiny_dataset.feature_data_bytes + tiny_dataset.structure_data_bytes
        )

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            load_scaled("IGB-tiny", 0.0)
        with pytest.raises(DatasetError):
            load_scaled("IGB-tiny", 1.5)
