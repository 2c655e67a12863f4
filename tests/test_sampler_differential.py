"""Differential test: the sort-once samplers against their two-unique oracle.

``tests/oracles/neighbor_sampler_reference.py`` holds ``NeighborSampler`` and
``HeteroNeighborSampler`` as they were before a layer became one key sort.
Every example below builds a random CSR graph (multi-edges, degree-0 nodes,
rows of exactly ``fanout`` neighbours, unsorted rows), gives the class and
its oracle the same RNG seed, and feeds both the same batches — duplicate
and unsorted seeds, single-seed serving-sized batches — requiring after
*every* call equal seeds, per-layer ``src``/``dst``, ``input_nodes``,
``num_sampled`` and generator state.

Tier 1 runs the default Hypothesis profile; CI's ``regression-gate`` job
runs ``--hypothesis-profile=differential --hypothesis-seed=0`` (500
examples).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.hetero import stack_types
from repro.sampling import (
    ClusterSampler,
    HeteroNeighborSampler,
    NeighborSampler,
)
from tests.oracles.neighbor_sampler_reference import (
    ReferenceHeteroNeighborSampler,
    ReferenceNeighborSampler,
    assert_same_batch,
)

MAX_FANOUT = 4


@st.composite
def csr_graphs(draw):
    """Small CSR graphs with every row shape a layer treats differently."""
    num_nodes = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Degrees straddle the fanouts: 0, below, equal (== fanout takes the
    # whole row, no draw) and well above (draws with replacement collide).
    degrees = rng.choice(
        [0, 1, 2, 3, MAX_FANOUT, MAX_FANOUT + 1, 12],
        size=num_nodes,
        p=[0.2, 0.1, 0.15, 0.15, 0.15, 0.15, 0.1],
    )
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    # Few distinct neighbours per graph when `spread` is small: rows full of
    # multi-edges, left in draw order (unsorted).
    spread = draw(st.integers(1, num_nodes))
    indices = rng.integers(0, spread, int(indptr[-1]))
    return CSRGraph(indptr=indptr, indices=indices)


@st.composite
def seed_batches(draw, num_nodes):
    """A few batches: serving-sized singles, duplicates, unsorted, sorted."""
    node = st.integers(0, num_nodes - 1)
    batch = st.one_of(
        st.lists(node, min_size=1, max_size=1),
        st.lists(node, min_size=1, max_size=12),
        st.lists(node, min_size=1, max_size=12).map(sorted),
    )
    return draw(st.lists(batch, min_size=1, max_size=4))


def assert_in_lockstep(sampler, oracle, batches):
    for batch in batches:
        seeds = np.asarray(batch, dtype=np.int64)
        before = seeds.copy()
        assert_same_batch(sampler.sample(seeds), oracle.sample(seeds))
        assert (
            sampler._rng.bit_generator.state
            == oracle._rng.bit_generator.state
        )
        np.testing.assert_array_equal(seeds, before)  # input left alone


@given(data=st.data())
def test_neighbor_sampler_matches_oracle(data):
    graph = data.draw(csr_graphs())
    fanouts = tuple(
        data.draw(st.lists(st.integers(1, MAX_FANOUT), min_size=1, max_size=3))
    )
    rng_seed = data.draw(st.integers(0, 2**16))
    assert_in_lockstep(
        NeighborSampler(graph, fanouts, seed=rng_seed),
        ReferenceNeighborSampler(graph, fanouts, seed=rng_seed),
        data.draw(seed_batches(graph.num_nodes)),
    )


@given(data=st.data())
def test_hetero_sampler_matches_oracle(data):
    graph = data.draw(csr_graphs())
    first = data.draw(st.integers(0, graph.num_nodes))
    hetero = stack_types({"a": first, "b": graph.num_nodes - first}, graph)
    cap = st.integers(0, MAX_FANOUT)
    fanouts = tuple(
        data.draw(
            st.lists(
                st.one_of(
                    st.integers(1, MAX_FANOUT),
                    st.fixed_dictionaries({"a": cap}),
                    st.fixed_dictionaries({"a": cap, "b": cap}),
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    rng_seed = data.draw(st.integers(0, 2**16))
    assert_in_lockstep(
        HeteroNeighborSampler(hetero, fanouts, seed=rng_seed),
        ReferenceHeteroNeighborSampler(hetero, fanouts, seed=rng_seed),
        data.draw(seed_batches(graph.num_nodes)),
    )


class _Nodes:
    """Just enough of a graph for a constructor to see its size."""

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes
        self.csr = self


class TestEdgeKeyOverflow:
    """``dst * num_nodes + src`` must fit int64: a typed error, not a wrap."""

    LIMIT = 3_037_000_499  # largest n with n * n <= 2**63

    def test_neighbor_sampler_rejects_unkeyable_graph(self):
        with pytest.raises(SamplingError, match="overflow int64"):
            NeighborSampler(_Nodes(self.LIMIT + 1), (5,), seed=0)
        NeighborSampler(_Nodes(self.LIMIT), (5,), seed=0)

    def test_hetero_sampler_rejects_unkeyable_graph(self):
        with pytest.raises(SamplingError, match="overflow int64"):
            HeteroNeighborSampler(_Nodes(self.LIMIT + 1), (5,), seed=0)

    def test_cluster_sampler_rejects_unkeyable_graph(self):
        class _Parts:
            num_parts = 2
            parts = range(self.LIMIT + 1)

        with pytest.raises(SamplingError, match="overflow int64"):
            ClusterSampler(_Nodes(self.LIMIT + 1), _Parts(), seed=0)
