"""Differential test: the sort-once samplers against their two-unique oracle.

``tests/oracles/neighbor_sampler_reference.py`` holds ``NeighborSampler`` and
``HeteroNeighborSampler`` as they were before a layer became one key sort.
Every example below builds a random CSR graph (multi-edges, degree-0 nodes,
rows of exactly ``fanout`` neighbours, unsorted rows), gives the class and
its oracle the same RNG seed, and feeds both the same batches — duplicate
and unsorted seeds, single-seed serving-sized batches — requiring after
*every* call equal seeds, per-layer ``src``/``dst``, ``input_nodes``,
``num_sampled`` and generator state.

``NeighborSampler`` has two layer paths — Python lists below
``_LIST_PATH_MAX_EDGES`` candidate edges (rows x fanout), arrays from there
up.  The strategy reaches both, and batches that change path between layers
(reported as Hypothesis events: ``--hypothesis-show-statistics``); the
explicit cases pin one batch on each side and one that crosses at the
shipped value, and the list path gets all-degree-0 and exactly-``fanout``
frontiers by name.  The property also draws the cutover itself — it picks a
speed, never a result — so ``find`` can show the strategy reaches all three.

Tier 1 runs the default Hypothesis profile; CI's ``regression-gate`` job
runs ``--hypothesis-profile=differential --hypothesis-seed=0`` (500
examples).  Each of these mutants of ``sampling/neighbor.py`` and
``sampling/frontier.py`` fails it there:

* a row of exactly ``fanout`` neighbours drawn from instead of taken
  whole — ``degrees >= fanout`` on the array path;
* the same on the list path — ``end - start >= fanout``;
* a list-path row end off by one — ``range(start, end - 1)``;
* ``row_positions`` off by one — each row read from one slot on;
* the draw offsets dropped — array-path picks not shifted by the row
  start;
* a frontier union that drops the last source — ``src[:-1]``;
* a dedup dropped — ``unique_edges`` keeps repeated keys;
* duplicate seeds kept — ``checked_seeds`` sorts without dropping them;
* the cutover compared with ``<=`` — both paths give the same block, so
  only ``test_a_layer_of_exactly_the_cutover_takes_arrays`` sees it.

Dropping ``unique_edges``'s in-place sort changes nothing
(``sorted_unique`` sorts what is not sorted), and neither does a dedup
that keeps the last of equal keys: no test can tell either apart.
"""

from random import Random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import Phase, event, find, given, settings, strategies as st

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.hetero import stack_types
from repro.sampling import (
    ClusterSampler,
    HeteroNeighborSampler,
    NeighborSampler,
)
from repro.sampling import neighbor
from repro.sampling.neighbor import _LIST_PATH_MAX_EDGES
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


class PathSpy(NeighborSampler):
    """``NeighborSampler`` that notes which path served each layer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths = []

    def _sample_layer_lists(self, frontier, fanout):
        self.paths.append("list")
        return super()._sample_layer_lists(frontier, fanout)

    def _sample_layer_arrays(self, frontier, fanout):
        self.paths.append("array")
        return super()._sample_layer_arrays(frontier, fanout)


#: Cutovers the property draws: always arrays, inside the sizes the
#: strategy builds (so batches change path between layers), the shipped
#: value, always lists.
CUTOVERS = (0, 6, 16, _LIST_PATH_MAX_EDGES, 10**6)


@st.composite
def sampling_cases(draw):
    graph = draw(csr_graphs())
    fanouts = tuple(
        draw(st.lists(st.integers(1, MAX_FANOUT), min_size=1, max_size=3))
    )
    rng_seed = draw(st.integers(0, 2**16))
    cutover = draw(st.sampled_from(CUTOVERS))
    return graph, fanouts, rng_seed, cutover, draw(
        seed_batches(graph.num_nodes)
    )


def run_case(case) -> set[str]:
    """Drive sampler and oracle in lock step; which paths the batches took."""
    graph, fanouts, rng_seed, cutover, batches = case
    sampler = PathSpy(graph, fanouts, seed=rng_seed)
    # The cutover picks a speed, never a result: any value must do.
    with patch.object(neighbor, "_LIST_PATH_MAX_EDGES", cutover):
        assert_in_lockstep(
            sampler,
            ReferenceNeighborSampler(graph, fanouts, seed=rng_seed),
            batches,
        )
    kinds = set()
    for i in range(0, len(sampler.paths), len(fanouts)):
        taken = set(sampler.paths[i:i + len(fanouts)])
        kinds.add("both paths" if len(taken) > 1 else taken.pop())
    return kinds


@given(sampling_cases())
def test_neighbor_sampler_matches_oracle(case):
    for kind in run_case(case):
        event(f"a batch on {kind}")


@pytest.mark.parametrize("kind", ["list", "array", "both paths"])
def test_the_strategy_reaches_each_side_of_the_cutover(kind):
    """``find`` raises unless the strategy can build a case with a batch
    wholly on one path / changing path between two of its layers."""
    find(
        sampling_cases(),
        lambda case: kind in run_case(case),
        # Existence is the point, not the smallest case: no shrinking.
        settings=settings(
            max_examples=400, database=None, phases=[Phase.generate]
        ),
        random=Random(0),
    )


def _regular_graph(num_nodes, degree):
    """Row ``i`` holds ``degree * i + 1 ...`` (mod n): a ``degree``-ary
    tree from node 0 outward, so small frontiers grow without overlap."""
    indptr = np.arange(num_nodes + 1, dtype=np.int64) * degree
    indices = (
        degree * np.arange(num_nodes)[:, None] + np.arange(1, degree + 1)
    ) % num_nodes
    return CSRGraph(indptr=indptr, indices=indices.ravel().astype(np.int64))


class TestCutover:
    """One batch per side of ``_LIST_PATH_MAX_EDGES``, one across it."""

    GRAPH = _regular_graph(4001, 9)

    @pytest.mark.parametrize(
        "num_seeds, fanouts, sides",
        [
            # a served request: 1 x 5, then at most 6 x 5 candidate edges
            (1, (5, 5), {"list"}),
            # a loader batch: 8 x 10 is already past the cutover
            (8, (10, 5, 5), {"array"}),
            # 1 x 4 and <= 5 x 4 stay on lists, ~18 x 4 edges do not
            (1, (4, 4, 4), {"list", "array"}),
        ],
    )
    def test_batches_take_the_path_their_edge_volume_picks(
        self, num_seeds, fanouts, sides
    ):
        sampler = PathSpy(self.GRAPH, fanouts, seed=5)
        oracle = ReferenceNeighborSampler(self.GRAPH, fanouts, seed=5)
        for start in range(1, 7):
            seeds = np.arange(num_seeds, dtype=np.int64) * 3 + start
            sampler.paths.clear()
            want = oracle.sample(seeds)
            assert_same_batch(sampler.sample(seeds), want)
            assert (
                sampler._rng.bit_generator.state
                == oracle._rng.bit_generator.state
            )
            # The rule, recomputed from the oracle's blocks (they come
            # back input-first): rows x fanout of each layer's frontier.
            frontier, expected = seeds, []
            for fanout, layer in zip(fanouts, reversed(want.layers)):
                edges = len(frontier) * fanout
                expected.append(
                    "list" if edges < _LIST_PATH_MAX_EDGES else "array"
                )
                frontier = np.union1d(frontier, layer.src)
            assert sampler.paths == expected
            assert set(expected) == sides

    def test_the_cutover_is_on_edges_not_rows(self):
        rows = 8
        assert rows * 5 < _LIST_PATH_MAX_EDGES <= rows * 10
        frontier = np.arange(rows, dtype=np.int64) * 40
        for fanout, path in ((5, "list"), (10, "array")):
            sampler = PathSpy(self.GRAPH, (fanout,), seed=0)
            sampler._sample_layer(frontier, fanout)
            assert sampler.paths == [path]

    @pytest.mark.parametrize("below, path", [(1, "list"), (0, "array")])
    def test_a_layer_of_exactly_the_cutover_takes_arrays(self, below, path):
        """Both paths give the same block, so only the path taken shows a
        cutover compared with ``<=``: one edge per row, at the constant."""
        frontier = np.arange(_LIST_PATH_MAX_EDGES - below, dtype=np.int64)
        sampler = PathSpy(self.GRAPH, (1,), seed=0)
        sampler._sample_layer(frontier * 40, 1)
        assert sampler.paths == [path]

    @pytest.mark.parametrize("degree", [0, 3])
    def test_list_path_on_rows_that_draw_nothing(self, degree):
        """All-degree-0 rows and rows of exactly ``fanout`` neighbours take
        no draw at all: whole rows (or nothing), generator untouched."""
        graph = _regular_graph(30, degree)
        sampler = PathSpy(graph, (3, 3), seed=1)
        oracle = ReferenceNeighborSampler(graph, (3, 3), seed=1)
        untouched = sampler._rng.bit_generator.state
        assert_in_lockstep(sampler, oracle, [[4], [7, 2], [29]])
        assert set(sampler.paths) == {"list"}
        assert sampler._rng.bit_generator.state == untouched
        batch = sampler.sample(np.asarray([4]))
        assert batch.num_edges == (0 if degree == 0 else 3 + 4 * 3)


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
