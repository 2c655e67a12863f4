"""Differential test: the array partitioner against its per-node oracle.

``tests/oracles/partition_reference.py`` holds ``bfs_partition`` and
``refine_partition`` as they were when growth visited one neighbour and
refinement re-counted one node at a time.  Every example builds a random
CSR graph — several components, isolated nodes (the unreachable-node
fallback), multi-edges, self-loops, unsorted rows — and requires equal
``parts`` (and an equally advanced generator) from both, for growth,
refinement of a grown or of an arbitrary partition, and the whole
``partition_graph`` pipeline, over every ``num_parts`` from 1 to n,
``passes`` 0-3 and ``balance_slack`` 1.0-2.0.

Tier 1 runs the default Hypothesis profile; CI's full-graph job runs
``--hypothesis-profile=differential --hypothesis-seed=0`` (500 examples).
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    PartitionResult,
    bfs_partition,
    partition_graph,
    refine_partition,
)
from tests.oracles.partition_reference import (
    reference_bfs_partition,
    reference_refine_partition,
)


@st.composite
def graphs(draw):
    """Small graphs of a few components, some nodes touching no edge."""
    num_nodes = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    component = rng.integers(0, draw(st.integers(1, 4)), num_nodes)
    isolated = rng.random(num_nodes) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    degrees = rng.choice([0, 1, 2, 3, 5, 9], size=num_nodes)
    degrees[isolated] = 0
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    # Neighbours from the node's own component, the node itself included
    # (self-loops), drawn with replacement (multi-edges), left unsorted.
    rows = [
        rng.choice(
            np.flatnonzero((component == component[v]) & ~isolated), d
        )
        for v, d in enumerate(degrees)
        if d
    ]
    indices = np.concatenate(rows) if rows else np.zeros(0, np.int64)
    return CSRGraph(indptr=indptr, indices=indices)


def _same(got: PartitionResult, want: PartitionResult) -> None:
    assert got.num_parts == want.num_parts
    np.testing.assert_array_equal(got.parts, want.parts)


@given(graphs(), st.data())
def test_growth_and_refinement_match_the_oracle(graph, data):
    n = graph.num_nodes
    num_parts = data.draw(st.integers(1, n), "num_parts")
    seed = data.draw(st.integers(0, 2**16), "seed")
    passes = data.draw(st.integers(0, 3), "passes")
    slack = data.draw(st.floats(1.0, 2.0), "balance_slack")

    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    grown = bfs_partition(graph, num_parts, seed=got_rng)
    _same(grown, reference_bfs_partition(graph, num_parts, seed=want_rng))
    assert got_rng.integers(2**32) == want_rng.integers(2**32)

    # Refine the grown partition and an arbitrary one (emptier parts,
    # many more favoured moves).
    arbitrary = PartitionResult(
        parts=np.random.default_rng(seed).integers(0, num_parts, n),
        num_parts=num_parts,
    )
    for initial in (grown, arbitrary):
        _same(
            refine_partition(
                graph, initial, passes=passes, balance_slack=slack
            ),
            reference_refine_partition(
                graph, initial, passes=passes, balance_slack=slack
            ),
        )

    want = reference_bfs_partition(graph, num_parts, seed=seed)
    if passes:
        want = reference_refine_partition(graph, want, passes=passes)
    _same(
        partition_graph(graph, num_parts, refine_passes=passes, seed=seed),
        want,
    )


def test_edgeless_graph_is_all_fallback():
    """No node is reachable from a seed: every one goes to the smallest
    part, lowest id on ties, in id order."""
    graph = CSRGraph(
        indptr=np.zeros(24, dtype=np.int64), indices=np.zeros(0, np.int64)
    )
    for num_parts in (1, 2, 5, 23):
        _same(
            partition_graph(graph, num_parts, seed=3),
            reference_bfs_partition(graph, num_parts, seed=3),
        )
