"""Differential test: the rank-peeling kernels against their ``ufunc.at`` oracle.

``tests/oracles/graphsage_reference.py`` holds ``GraphSAGE``'s forward and
backward bodies as they were while every aggregation was an ``np.add.at`` /
``np.maximum.at`` call.  Every example below builds a random edge block —
duplicate edges, isolated rows, rows no edge reaches, no edges at all, a
hub row whose in-degree runs far past the point where peeling stops and the
``ufunc.at`` tail takes over, edges in no particular order — gives the model
and its oracle the same parameters, and requires bit-identical logits,
loss, every parameter gradient, every block output and every input
gradient, for all three aggregators, with a block plan passed and rebuilt.

"Bit-identical" is compared on the ``uint64`` view, never with
``np.array_equal`` (which calls ``-0.0`` equal to ``0.0``) and never with
``allclose``.  Feature magnitudes span eight decades, so a kernel that
summed a row's edges in any other order would round differently and fail.
The kernel-level property adds what the model never feeds it: ``±0.0`` and
``±inf`` values, zero / non-zero / ``-inf`` initial outputs, hubs deeper
than 64 rank levels, and blocks wholly peeled, wholly in the ``ufunc.at``
tail and split between the two (Hypothesis events; ``find`` below shows the
strategy reaches each).

Tier 1 runs the default Hypothesis profile (~1 s); CI's ``training-kernels``
step runs ``--hypothesis-profile=differential --hypothesis-seed=0`` (500
examples, ~5 s).
"""

from random import Random

import numpy as np
import pytest
from hypothesis import Phase, event, example, find, given, settings
from hypothesis import strategies as st

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
SHAPES = ("uniform", "multi", "hub", "gaps", "empty")


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want, what=""):
    """Equal shapes and equal bit patterns (``-0.0`` is not ``0.0``)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(_bits(got), _bits(want)), what


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
    if shape == "gaps":  # every other row receives nothing
        dst -= dst % 2
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

    assert_same_bits(
        model.forward(batch, features), oracle.forward(batch, features)
    )
    loss, grads = model.gradients(batch, features, labels)
    want_loss, want_grads = oracle.gradients(batch, features, labels)
    assert_same_bits(loss, want_loss)
    for got, want in zip(grads, want_grads):
        assert sorted(got) == sorted(want)
        for name in want:
            assert_same_bits(got[name], want[name], name)


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
        assert_same_bits(
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
        assert_same_bits(got_d, want_d)
        for name in want_g:
            assert_same_bits(got_g[name], want_g[name], name)
            # No input gradient asked for: same parameter gradients.
            assert_same_bits(skip_g[name], want_g[name], name)


#: Hub rows deeper than this many rank levels are asked for by name.
DEEP_HUB = 64
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf])


def _with_specials(rng, values):
    """``values`` with about a quarter of its entries ``±0.0`` / ``±inf``."""
    hit = rng.random(values.shape) < 0.25
    values[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return values


@st.composite
def scatter_cases(draw):
    return dict(
        skew=draw(st.sampled_from(("uniform", "zipf", "gaps", "hub"))),
        num_edges=draw(st.integers(0, 600)),
        num_rows=draw(st.integers(1, 300)),
        width=draw(st.sampled_from((1, 3, 32, 300))),
        ufunc=draw(st.sampled_from((np.add, np.maximum))),
        initial=draw(st.sampled_from(("zeros", "values", "-inf"))),
        specials=draw(st.booleans()),
        gathered=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def run_scatter(case) -> set[str]:
    """``scatter`` against ``ufunc.at`` on one case; what the case reached."""
    rng = np.random.default_rng(case["seed"])
    num_edges, num_rows = case["num_edges"], case["num_rows"]
    width = case["width"]
    if case["skew"] == "zipf":
        index = np.minimum(rng.zipf(1.3, num_edges) - 1, num_rows - 1)
    else:
        index = rng.integers(0, num_rows, num_edges)
    if case["skew"] == "gaps":
        index -= index % 3
    if case["skew"] == "hub":
        depth = int(rng.integers(DEEP_HUB + 1, 3 * DEEP_HUB))
        index = np.concatenate([index, np.full(depth, num_rows // 2)])
        index = index[rng.permutation(len(index))]
    shape = (num_rows, width)
    out = {
        "zeros": lambda: np.zeros(shape),
        "values": lambda: _values(rng, shape),
        "-inf": lambda: np.full(shape, -np.inf),
    }[case["initial"]]()
    value_rows = 17 if case["gathered"] else len(index)
    values = _values(rng, (value_rows, width))
    if case["specials"]:
        values = _with_specials(rng, values)
    rows = rng.integers(0, 17, len(index)) if case["gathered"] else None
    want = out.copy()
    plan = ScatterPlan(index)
    with np.errstate(invalid="ignore"):  # inf - inf is part of the case
        case["ufunc"].at(want, index, values if rows is None else values[rows])
        scatter(case["ufunc"], out, plan, values, rows)
    assert_same_bits(out, want)

    peeled = [
        hi - lo for lo, hi in plan.levels
        if (hi - lo) * width >= _MIN_LEVEL_ELEMENTS
    ]
    kinds = set()
    if len(index):
        kinds.add(
            "all in the tail" if not peeled
            else "all peeled" if len(peeled) == len(plan.levels)
            else "peeled and tail"
        )
    if len(plan.levels) > DEEP_HUB:
        kinds.add(f"a hub over {DEEP_HUB} levels")
    if len(plan.rows) < num_rows:
        kinds.add("rows without edges")
    return kinds


@given(scatter_cases())
# A hub far past 64 levels, peeled at its head, finished in the tail.
@example(dict(
    skew="hub", num_edges=300, num_rows=40, width=32, ufunc=np.add,
    initial="values", specials=True, gathered=True, seed=1,
))
# Signed zeros into signed zeros, and -inf under a max: nothing peeled.
@example(dict(
    skew="gaps", num_edges=50, num_rows=20, width=1, ufunc=np.add,
    initial="values", specials=True, gathered=False, seed=2,
))
@example(dict(
    skew="zipf", num_edges=200, num_rows=9, width=300, ufunc=np.maximum,
    initial="-inf", specials=True, gathered=False, seed=3,
))
def test_scatter_equals_ufunc_at(case):
    for kind in run_scatter(case):
        event(kind)


@pytest.mark.parametrize(
    "kind",
    [
        "all in the tail",
        "all peeled",
        "peeled and tail",
        f"a hub over {DEEP_HUB} levels",
        "rows without edges",
    ],
)
def test_the_scatter_strategy_reaches(kind):
    """``find`` raises unless the strategy builds a case of each kind."""
    find(
        scatter_cases(),
        lambda case: kind in run_scatter(case),
        settings=settings(
            max_examples=400, database=None, phases=[Phase.generate]
        ),
        random=Random(0),
    )


@given(
    st.lists(st.integers(0, 30), max_size=300),
    st.integers(0, 2**16),
)
def test_plan_rows_are_the_targets_by_edge_count(index, seed):
    """``rows``: each distinct target once, most edges first, ties by id;
    rank ``k`` hits exactly ``rows[:n_k]``, and every row still meets its
    edges in array order."""
    index = np.asarray(index, dtype=np.int64)
    plan = ScatterPlan(index)
    counts = np.bincount(index, minlength=31)
    assert sorted(plan.rows.tolist()) == np.unique(index).tolist()
    key = [(-counts[row], row) for row in plan.rows.tolist()]
    assert key == sorted(key)
    assert sorted(plan.order.tolist()) == list(range(len(index)))
    assert np.array_equal(plan.targets, index[plan.order])
    for lo, hi in plan.levels:
        assert np.array_equal(plan.targets[lo:hi], plan.rows[: hi - lo])
    for row in plan.rows.tolist():
        edges = plan.order[plan.targets == row]
        assert np.array_equal(edges, np.flatnonzero(index == row))


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
    assert_same_bits(loss, want_loss)
    for name in want[0]:
        assert_same_bits(grads[0][name], want[0][name], name)
