"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, from_coo


def chain_graph():
    """0 <- 1 <- 2 (node i's in-neighbor is i+1)."""
    return CSRGraph(
        indptr=np.array([0, 1, 2, 2]), indices=np.array([1, 2])
    )


class TestCSRGraph:
    def test_counts(self):
        g = chain_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_degrees(self):
        g = chain_graph()
        assert list(g.degrees) == [1, 1, 0]

    def test_neighbors(self):
        g = chain_graph()
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(2)) == []

    def test_neighbors_view_is_readonly(self):
        g = chain_graph()
        with pytest.raises(ValueError):
            g.neighbors(0)[0] = 99

    def test_neighbors_out_of_range(self):
        with pytest.raises(GraphError):
            chain_graph().neighbors(3)

    def test_has_edge(self):
        g = chain_graph()
        assert 1 in g.neighbors(0)
        assert 0 not in g.neighbors(1)

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))

    def test_indptr_must_end_at_num_edges(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0, 0]))

    def test_indices_in_range(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))

    def test_negative_indices_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([-1]))

    def test_empty_graph(self):
        g = CSRGraph(indptr=np.array([0]), indices=np.array([], dtype=np.int64))
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_structure_bytes(self):
        g = chain_graph()
        assert g.structure_bytes(8) == 8 * (4 + 2)


class TestReverse:
    def test_reverse_flips_edges(self):
        g = chain_graph()
        r = g.reverse()
        # In g, 1 is an in-neighbor of 0; reversed, 0 is an in-neighbor of 1.
        assert list(r.neighbors(1)) == [0]
        assert list(r.neighbors(2)) == [1]
        assert list(r.neighbors(0)) == []

    def test_double_reverse_is_identity(self, tiny_graph):
        rr = tiny_graph.reverse().reverse()
        assert np.array_equal(rr.indptr, tiny_graph.indptr)
        # Within each adjacency list order may differ; compare sorted.
        for v in range(0, tiny_graph.num_nodes, 37):
            assert sorted(rr.neighbors(v)) == sorted(tiny_graph.neighbors(v))

    def test_reverse_preserves_edge_count(self, tiny_graph):
        assert tiny_graph.reverse().num_edges == tiny_graph.num_edges


class TestFromCoo:
    def test_basic(self):
        g = from_coo(np.array([1, 2]), np.array([0, 0]), num_nodes=3)
        assert sorted(g.neighbors(0)) == [1, 2]
        assert g.num_edges == 2

    def test_dedup(self):
        g = from_coo(
            np.array([1, 1, 2]), np.array([0, 0, 0]), num_nodes=3, dedup=True
        )
        assert g.num_edges == 2

    def test_no_dedup_keeps_duplicates(self):
        g = from_coo(np.array([1, 1]), np.array([0, 0]), num_nodes=3)
        assert g.num_edges == 2
        assert list(g.neighbors(0)) == [1, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_coo(np.array([5]), np.array([0]), num_nodes=3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(GraphError):
            from_coo(np.array([0, 1]), np.array([0]), num_nodes=3)

    def test_empty_edges(self):
        g = from_coo(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4
        )
        assert g.num_nodes == 4
        assert g.num_edges == 0
