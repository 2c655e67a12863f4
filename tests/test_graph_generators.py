"""Unit tests for synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import power_law_graph


class TestPowerLawGraph:
    def test_counts(self):
        g = power_law_graph(1000, 8000, seed=0, self_loops=True)
        assert g.num_nodes == 1000
        assert g.num_edges == 8000

    def test_self_loops_removed_by_default(self):
        g = power_law_graph(100, 2000, seed=0)
        for v in range(g.num_nodes):
            assert v not in g.neighbors(v)

    def test_deterministic(self):
        a = power_law_graph(300, 2000, seed=5)
        b = power_law_graph(300, 2000, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self):
        a = power_law_graph(300, 2000, seed=5)
        b = power_law_graph(300, 2000, seed=6)
        assert not np.array_equal(a.indices, b.indices)

    def test_skew_concentrates_sources(self):
        """Higher skew -> fewer distinct nodes account for most edges."""
        flat = power_law_graph(2000, 20000, skew=0.0, seed=1)
        skewed = power_law_graph(2000, 20000, skew=1.2, seed=1)

        def top_source_share(g, top=0.05):
            counts = np.bincount(g.indices, minlength=g.num_nodes)
            counts.sort()
            k = int(top * g.num_nodes)
            return counts[-k:].sum() / max(1, counts.sum())

        assert top_source_share(skewed) > top_source_share(flat) + 0.15

    def test_invalid_nodes(self):
        with pytest.raises(GraphError):
            power_law_graph(0, 10)

    def test_invalid_edges(self):
        with pytest.raises(GraphError):
            power_law_graph(10, -1)

    def test_invalid_skew(self):
        with pytest.raises(GraphError):
            power_law_graph(10, 10, skew=-0.5)

    @pytest.mark.parametrize(
        "skew", [float("nan"), float("inf"), -float("inf")]
    )
    def test_non_finite_skew(self, skew):
        """NaN used to pass the sign check and die inside NumPy; +inf
        silently generated an edgeless graph."""
        with pytest.raises(GraphError, match="finite"):
            power_law_graph(10, 10, skew=skew)

    def test_zero_edges(self):
        g = power_law_graph(10, 0, seed=0)
        assert g.num_edges == 0


class TestUniformGraph:
    def test_no_skew(self):
        g = power_law_graph(500, 5000, skew=0.0, seed=2)
        counts = np.bincount(g.indices, minlength=g.num_nodes)
        # Uniform sources: max in-degree contribution should be modest.
        assert counts.max() < 50
