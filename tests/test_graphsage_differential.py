"""Differential test: the rank-peeling kernels against their ``ufunc.at`` oracle.

``tests/oracles/graphsage_reference.py`` holds ``GraphSAGE``'s forward and
backward bodies as they were while every aggregation was an ``np.add.at`` /
``np.maximum.at`` call.  Every example below builds a random edge block —
duplicate edges, isolated rows, no edges at all, a hub row whose in-degree
runs far past the point where peeling stops and the ``ufunc.at`` tail takes
over, edges in no particular order — gives the model and its oracle the same
parameters, and requires ``np.array_equal`` (never ``allclose``) logits,
loss, every parameter gradient, every block output and every input
gradient, for all three aggregators, with a block plan passed and rebuilt.

Feature magnitudes span eight decades, so a kernel that summed a row's
edges in any other order would round differently and fail.

Tier 1 runs the default Hypothesis profile (~1 s); CI's ``training-kernels``
step runs ``--hypothesis-profile=differential --hypothesis-seed=0`` (500
examples, ~5 s).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sampling.minibatch import MiniBatch, SampledLayer
from repro.training.graphsage import AGGREGATORS, GraphSAGE
from repro.training.scatter import (
    _MIN_LEVEL_ELEMENTS,
    BlockPlan,
    ScatterPlan,
    scatter,
)
from tests.oracles.graphsage_reference import ReferenceGraphSAGE

IN_DIM, HIDDEN, CLASSES = 32, 16, 4
SHAPES = ("uniform", "multi", "hub", "empty")


def _edges(rng, shape, num_src, num_dst):
    """Local ``(src, dst)`` index arrays of one block, in shuffled order."""
    if shape == "empty":
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    count = int(rng.integers(1, 6 * num_dst + 2))
    src = rng.integers(0, num_src, count)
    dst = rng.integers(0, num_dst, count)
    if shape == "multi":  # few distinct edges, each many times over
        src %= max(1, num_src // 4)
        dst %= max(1, num_dst // 4)
    if shape == "hub":  # one row far deeper than any level is wide
        hub = int(rng.integers(0, 3 * _MIN_LEVEL_ELEMENTS // HIDDEN))
        src = np.concatenate([src, rng.integers(0, num_src, hub)])
        dst = np.concatenate([dst, np.full(hub, rng.integers(0, num_dst))])
    order = rng.permutation(len(src))
    return src[order], dst[order]


def _values(rng, shape):
    """Floats whose sums depend on order; small integers (pool ties) at
    times."""
    if rng.random() < 0.25:
        return rng.integers(-1, 2, shape).astype(np.float64)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)


def _models(aggregator, seed):
    kwargs = dict(num_layers=2, aggregator=aggregator, seed=seed)
    return (
        GraphSAGE(IN_DIM, HIDDEN, CLASSES, **kwargs),
        ReferenceGraphSAGE(IN_DIM, HIDDEN, CLASSES, **kwargs),
    )


cases = st.tuples(
    st.sampled_from(AGGREGATORS),
    st.sampled_from(SHAPES),
    st.integers(1, 24),
    st.integers(0, 2**16),
)


@given(cases)
def test_minibatch_paths_match_the_oracle(case):
    aggregator, shape, num_nodes, seed = case
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.choice(10 * num_nodes, num_nodes, replace=False))
    layers = tuple(
        SampledLayer(src=nodes[src], dst=nodes[dst])
        for src, dst in (
            _edges(rng, shape, num_nodes, num_nodes) for _ in range(2)
        )
    )
    seeds = rng.choice(nodes, int(rng.integers(1, num_nodes + 1)))
    batch = MiniBatch(seeds, layers, nodes, num_sampled=num_nodes)
    features = _values(rng, (num_nodes, IN_DIM))
    labels = rng.integers(0, CLASSES, len(seeds))
    model, oracle = _models(aggregator, seed)

    assert np.array_equal(
        model.forward(batch, features), oracle.forward(batch, features)
    )
    loss, grads = model.gradients(batch, features, labels)
    want_loss, want_grads = oracle.gradients(batch, features, labels)
    assert loss == want_loss
    for got, want in zip(grads, want_grads):
        assert sorted(got) == sorted(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


@given(cases, st.booleans())
def test_block_paths_match_the_oracle(case, pass_plan):
    aggregator, shape, num_nodes, seed = case
    rng = np.random.default_rng(seed)
    rows = np.sort(
        rng.choice(num_nodes, int(rng.integers(1, num_nodes + 1)), False)
    )
    src, local_dst = _edges(rng, shape, num_nodes, len(rows))
    dst = rows[local_dst]
    plan = BlockPlan.of_partition(rows, src, dst) if pass_plan else None
    model, oracle = _models(aggregator, seed)

    for li, d_in, d_out in ((0, IN_DIM, HIDDEN), (1, HIDDEN, CLASSES)):
        h_prev = _values(rng, (num_nodes, d_in))
        out = model.layer_forward_block(li, h_prev, rows, src, dst, plan)
        assert np.array_equal(
            out, oracle.layer_forward_block(li, h_prev, rows, src, dst)
        )
        h_out_rows = out if li == 0 else None  # last layer is linear
        d_out_rows = _values(rng, (len(rows), d_out))
        # The buffers arrive holding other partitions' contributions.
        d_h_start = _values(rng, (num_nodes, d_in))
        got_d, want_d = d_h_start.copy(), d_h_start.copy()
        got_g = model.zero_gradients()[li]
        skip_g = model.zero_gradients()[li]
        want_g = oracle.zero_gradients()[li]
        block = (li, h_prev, h_out_rows, rows, src, dst, d_out_rows)
        model.layer_backward_block(*block, got_d, got_g, plan)
        model.layer_backward_block(*block, None, skip_g, plan)
        oracle.layer_backward_block(*block, want_d, want_g)
        assert np.array_equal(got_d, want_d)
        for name in want_g:
            assert np.array_equal(got_g[name], want_g[name]), name
            # No input gradient asked for: same parameter gradients.
            assert np.array_equal(skip_g[name], want_g[name]), name


@given(
    st.sampled_from(("uniform", "zipf")),
    st.integers(0, 400),
    st.integers(1, 40),
    st.sampled_from((1, 3, 32, 300)),
    st.sampled_from((np.add, np.maximum)),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_scatter_equals_ufunc_at(
    skew, num_edges, num_rows, width, ufunc, gathered, seed
):
    rng = np.random.default_rng(seed)
    if skew == "zipf":
        index = np.minimum(rng.zipf(1.3, num_edges) - 1, num_rows - 1)
    else:
        index = rng.integers(0, num_rows, num_edges)
    out = _values(rng, (num_rows, width))
    want = out.copy()
    if gathered:
        values = _values(rng, (17, width))
        rows = rng.integers(0, 17, num_edges)
        ufunc.at(want, index, values[rows])
    else:
        values, rows = _values(rng, (num_edges, width)), None
        ufunc.at(want, index, values)
    scatter(ufunc, out, ScatterPlan(index), values, rows)
    assert np.array_equal(out, want)


def test_hub_block_peels_its_head_and_leaves_its_tail():
    """The shape the examples above rely on to reach both code paths."""
    rng = np.random.default_rng(0)
    src, dst = _edges(rng, "uniform", 24, 24)
    hub = 2 * _MIN_LEVEL_ELEMENTS // HIDDEN
    dst = np.concatenate([dst, np.full(hub, 5)])
    sizes = [hi - lo for lo, hi in ScatterPlan(dst).levels]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] * HIDDEN >= _MIN_LEVEL_ELEMENTS > sizes[-1] * HIDDEN
    assert len(sizes) >= hub


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_gradients_skip_only_the_input_layer(aggregator):
    """A one-layer model's only layer is the input layer: its parameter
    gradients must not depend on the skipped input gradient."""
    rng = np.random.default_rng(3)
    nodes = np.arange(12)
    src, dst = _edges(rng, "hub", 12, 12)
    batch = MiniBatch(nodes[:5], (SampledLayer(src, dst),), nodes, 12)
    features = _values(rng, (12, IN_DIM))
    labels = rng.integers(0, CLASSES, 5)
    kwargs = dict(num_layers=1, aggregator=aggregator, seed=1)
    loss, grads = GraphSAGE(IN_DIM, HIDDEN, CLASSES, **kwargs).gradients(
        batch, features, labels
    )
    want_loss, want = ReferenceGraphSAGE(
        IN_DIM, HIDDEN, CLASSES, **kwargs
    ).gradients(batch, features, labels)
    assert loss == want_loss
    for name in want[0]:
        assert np.array_equal(grads[0][name], want[0][name])
