"""Differential test: GraphSAGE against its ``ufunc.at``, unpruned oracle.

``tests/oracles/graphsage_reference.py`` holds ``GraphSAGE``'s forward and
backward bodies as they were while every aggregation was an ``np.add.at`` /
``np.maximum.at`` call and every mini-batch layer ran over every input
node.  Every example below builds a random edge block — duplicate edges,
isolated rows, rows no edge reaches, no edges at all, a hub row whose
in-degree runs far past the point where peeling stops and the ``ufunc.at``
tail takes over, edges in no particular order — gives the model and its
oracle the same parameters, and compares logits, loss, every parameter
gradient, every block output and every input gradient, for all three
aggregators, with a block plan passed and rebuilt.

The partition-block paths and the scatter kernel are compared bit for bit,
on the ``uint64`` view — never with ``np.array_equal`` (which calls
``-0.0`` equal to ``0.0``) and never with ``allclose``.  Feature magnitudes
span eight decades, so a kernel that summed a row's edges in any other
order would round differently and fail.  The kernel-level property adds
what the model never feeds it: ``±0.0`` and ``±inf`` values, zero /
non-zero / ``-inf`` initial outputs, hubs deeper than 64 rank levels, and
blocks wholly peeled, wholly in the ``ufunc.at`` tail and split between the
two (Hypothesis events; ``find`` below shows the strategy reaches each).

The mini-batch path computes each layer only on the rows the next layer
reads, so its GEMMs run over fewer rows than the oracle's: it is held to
``RTOL`` below, and bit for bit whenever pruning removes no row.  Batches
from every sampler kind are held to the oracle; an edge into a row nothing
reads is dropped, and an id with no input row is a ``ConfigError``.  A
fleet's per-step losses stay within
1e-9 relative of an oracle-driven replay of its schedule.

Tier 1 runs the default Hypothesis profile and a 2-GPU, 24-step fleet
(~2 s together); CI's ``training-kernels`` step runs
``--hypothesis-profile=differential --hypothesis-seed=0`` (500 examples,
~5 s) and the full trajectory, ten seeds of 400 ``fleet-4gpu`` steps::

    PYTHONPATH=src python -m tests.test_graphsage_differential
"""

import dataclasses
import sys
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, event, example, find, given, settings
from hypothesis import strategies as st

from repro.config import INTEL_OPTANE, SystemConfig
from repro.core import fleet
from repro.errors import ConfigError
from repro.graph.datasets import load_scaled
from repro.graph.generators import power_law_graph
from repro.graph.hetero import stack_types
from repro.graph.partition import partition_graph
from repro.sampling.cluster import ClusterSampler
from repro.sampling.hetero_neighbor import HeteroNeighborSampler
from repro.sampling.ladies import LadiesSampler
from repro.sampling.minibatch import MiniBatch, SampledLayer
from repro.sampling.neighbor import NeighborSampler
from repro.storage.feature_store import FeatureStore
from repro.training.graphsage import AGGREGATORS, GraphSAGE, frontiers
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


#: The tolerance a pruned mini-batch step is held to.  A pruned layer runs
#: its GEMMs over fewer rows than the oracle's, and OpenBLAS's last bits
#: depend on the row count; aggregation itself adds each row's edges in the
#: oracle's order.  Every element must lie within ``RTOL`` of its oracle
#: value, relative to the largest magnitude in its array (an element that
#: cancels to near zero keeps the absolute error of its array's scale).
RTOL = 1e-9


def assert_close(got, want, what=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    scale = np.abs(want).max(initial=0.0)
    assert np.all(np.abs(got - want) <= RTOL * scale), what


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


def _message_flow_layers(rng, shape, nodes, seeds, num_layers):
    """Blocks drawn seeds-outward, each ``dst`` among the rows the next
    layer reads (the seeds, then every row read so far)."""
    rows = np.unique(seeds)
    layers = []
    for _ in range(num_layers):
        src, dst = _edges(rng, shape, len(nodes), len(rows))
        layers.append(SampledLayer(src=nodes[src], dst=rows[dst]))
        rows = np.union1d(rows, nodes[src])
    return tuple(reversed(layers))


def assert_matches_oracle(model, oracle, batch, features, labels):
    """Bit for bit when pruning removes no row, within ``RTOL`` otherwise."""
    prunes = any(
        len(rows) < batch.num_input_nodes for rows in frontiers(batch)
    )
    check = assert_close if prunes else assert_same_bits
    check(model.forward(batch, features), oracle.forward(batch, features))
    loss, grads = model.gradients(batch, features, labels)
    want_loss, want_grads = oracle.gradients(batch, features, labels)
    check(loss, want_loss, "loss")
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert sorted(got) == sorted(want)
        for name in want:
            check(got[name], want[name], name)
    return prunes


@given(cases, st.booleans())
def test_minibatch_paths_match_the_oracle(case, whole):
    """``whole``: every node is a seed, so no layer prunes a row."""
    aggregator, shape, num_nodes, seed = case
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.choice(10 * num_nodes, num_nodes, replace=False))
    seeds = (
        rng.permutation(nodes) if whole
        # Unsorted, with repeats: logits come back once per seed.
        else rng.choice(nodes, int(rng.integers(1, num_nodes + 1)))
    )
    layers = _message_flow_layers(rng, shape, nodes, seeds, 2)
    batch = MiniBatch(seeds, layers, nodes, num_sampled=num_nodes)
    features = _values(rng, (num_nodes, IN_DIM))
    labels = rng.integers(0, CLASSES, len(seeds))
    prunes = assert_matches_oracle(
        *_models(aggregator, seed), batch, features, labels
    )
    assert not (whole and prunes)
    event("pruned" if prunes else "nothing pruned: bit for bit")


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
    gradients must not depend on the skipped input gradient — with five
    of twelve nodes as seeds (pruned) and with all twelve (bit for bit)."""
    kwargs = dict(num_layers=1, aggregator=aggregator, seed=1)
    nodes = np.arange(12)
    for num_seeds, prunes in ((5, True), (12, False)):
        rng = np.random.default_rng(3)
        src, dst = _edges(rng, "hub", 12, num_seeds)
        batch = MiniBatch(
            nodes[:num_seeds], (SampledLayer(src, dst),), nodes, 12
        )
        features = _values(rng, (12, IN_DIM))
        labels = rng.integers(0, CLASSES, num_seeds)
        assert assert_matches_oracle(
            GraphSAGE(IN_DIM, HIDDEN, CLASSES, **kwargs),
            ReferenceGraphSAGE(IN_DIM, HIDDEN, CLASSES, **kwargs),
            batch, features, labels,
        ) == prunes


# ----------------------------------------------------------------------
# The pruning precondition: every sampler's batches meet it


SAMPLED_NODES = 400


def _sampler(kind: str):
    graph = power_law_graph(SAMPLED_NODES, 3200, seed=6)
    if kind == "neighbor":
        return NeighborSampler(graph, (5, 5), seed=0)
    if kind == "ladies":
        return LadiesSampler(graph, (48, 48), seed=0)
    if kind == "hetero":
        hetero = stack_types(
            {"paper": 200, "author": 190, "institute": 10}, graph
        )
        return HeteroNeighborSampler(
            hetero, ({"paper": 4, "author": 2}, 3), seed=0
        )
    partition = partition_graph(graph, 8, seed=0)
    return ClusterSampler(
        graph, partition, clusters_per_batch=2, num_layers=2, seed=0
    )


@pytest.mark.parametrize("kind", ("neighbor", "ladies", "hetero", "cluster"))
def test_sampled_batches_meet_the_pruning_precondition(kind):
    """Every block's dst lies among the rows the next layer reads; the
    float32 feature block the loaders deliver goes in as it is."""
    sampler = _sampler(kind)
    store = FeatureStore(SAMPLED_NODES, IN_DIM)
    rng = np.random.default_rng(7)
    pruned = 0
    for i in range(6):
        batch = (
            sampler.sample() if kind == "cluster"
            else sampler.sample(rng.choice(SAMPLED_NODES, 16, replace=False))
        )
        features = store.fetch(batch.input_nodes)
        assert features.dtype == np.float32
        labels = rng.integers(0, CLASSES, len(batch.seeds))
        pruned += assert_matches_oracle(
            *_models(AGGREGATORS[i % 3], i), batch, features, labels
        )
    # A cluster batch trains every member: nothing to prune, bit for bit.
    assert pruned == (0 if kind == "cluster" else 6)


UPPER = SampledLayer(src=np.array([1, 3]), dst=np.array([0, 0]))


def test_a_batch_outside_the_precondition_is_a_config_error():
    """An id with no input row: ``searchsorted`` would pick a neighbor's."""
    model, _ = _models("mean", 0)
    features = np.ones((6, IN_DIM))
    labels = np.zeros(1, dtype=np.int64)
    # A source the batch never gathered features for.
    ungathered = MiniBatch(
        np.array([0]),
        (SampledLayer(src=np.array([9]), dst=np.array([1])), UPPER),
        np.arange(6),
        3,
    )
    with pytest.raises(ConfigError, match="layer 0: 1 src id.*first 9"):
        model.gradients(ungathered, features, labels)
    with pytest.raises(ConfigError, match="layer 0: 1 src id.*first 9"):
        model.forward(ungathered, features)
    # A seed the batch never gathered features for.
    unseeded = MiniBatch(
        np.array([7]),
        (SampledLayer(src=np.array([2]), dst=np.array([1])), UPPER),
        np.arange(6),
        3,
    )
    with pytest.raises(ConfigError, match="layer 0: 1 frontier id.*first 7"):
        model.gradients(unseeded, features, labels)


def test_edges_into_rows_nothing_reads_are_dropped():
    """A block ``dst`` outside the rows the next layer reads feeds a row no
    loss reads: the pruned step drops the edge and still meets the
    oracle.  ClusterGCN with a train mask trains a labeled subset of each
    cluster over the whole induced graph, so its batches have such edges."""
    rng = np.random.default_rng(2)
    # Layer 1 reads nodes 0, 1 and 3; layer 0's edges 5 -> 4 and 2 -> 4
    # feed node 4.
    stray = MiniBatch(
        np.array([0]),
        (SampledLayer(np.array([5, 2, 2, 4]), np.array([4, 1, 4, 3])), UPPER),
        np.arange(6),
        3,
    )
    assert assert_matches_oracle(
        *_models("mean", 0), stray, _values(rng, (6, IN_DIM)),
        np.zeros(1, dtype=np.int64),
    )
    graph = power_law_graph(SAMPLED_NODES, 3200, seed=6)
    sampler = ClusterSampler(
        graph, partition_graph(graph, 8, seed=0), num_layers=2,
        train_mask=np.arange(SAMPLED_NODES) % 2 == 0, seed=0,
    )
    store = FeatureStore(SAMPLED_NODES, IN_DIM)
    for i in range(3):
        masked = sampler.sample()
        # The last block feeds unlabeled members, which no loss reads.
        assert not np.isin(masked.layers[-1].dst, masked.seeds).all()
        assert assert_matches_oracle(
            *_models(AGGREGATORS[i], i),
            masked,
            store.fetch(masked.input_nodes),
            rng.integers(0, CLASSES, len(masked.seeds)),
        )


# ----------------------------------------------------------------------
# A fleet's loss trajectory against an oracle-driven replay

#: Per-step losses of a pruned fleet and of the oracle, relative.
LOSS_RTOL = 1e-9


def fleet_trajectory(dataset, steps, seed, *, num_gpus=4, fanouts=(10, 10)):
    """``steps`` global steps of a 2x Optane fleet at batch size 4, and the
    losses of its schedule replayed through :class:`ReferenceGraphSAGE`."""
    trainer = fleet.ElasticFleetTrainer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        fleet.FleetConfig(num_gpus=num_gpus, batch_size=4),
        seed=seed,
        fanouts=fanouts,
    )
    result = trainer.run_epoch(max_steps=steps)
    assert len(result.losses) == steps
    built = []

    class Oracle(ReferenceGraphSAGE):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(fleet, "GraphSAGE", Oracle):
        oracle = fleet.replay_schedule(dataset, result)
    # The replay trained the oracle, not the pruned model.
    assert len(built) == 1
    return list(result.losses), oracle


def relative_errors(losses, oracle) -> np.ndarray:
    losses, oracle = np.asarray(losses), np.asarray(oracle)
    return np.abs(losses - oracle) / np.abs(oracle)


def with_train_ids(dataset, seed: int, count: int):
    """``dataset`` with ``count`` training nodes drawn as the ``fleet-4gpu``
    benchmark workload draws them."""
    rng = np.random.default_rng([seed, 0xF1EE7])
    train_ids = rng.choice(dataset.num_nodes, count, replace=False)
    return dataclasses.replace(dataset, train_ids=np.sort(train_ids))


def test_fleet_losses_track_the_oracle(small_dataset):
    """24 steps of a 2-GPU fleet on IGB-tiny@0.05 (~0.7 s); under OpenBLAS
    about half its losses differ from the oracle's in the last bits."""
    losses, oracle = fleet_trajectory(
        with_train_ids(small_dataset, 0, 24 * 8), 24, 0,
        num_gpus=2, fanouts=(5, 5),
    )
    assert relative_errors(losses, oracle).max() <= LOSS_RTOL


def main(seeds=range(10), steps=400) -> int:
    """The full trajectory: ``fleet-4gpu`` for ``steps`` global steps (16
    seeds each) at every seed; exit 1 past ``LOSS_RTOL``."""
    worst = 0.0
    for seed in seeds:
        dataset = with_train_ids(
            load_scaled("IGB-tiny", 0.3, seed=seed), seed, 16 * steps
        )
        losses, oracle = fleet_trajectory(dataset, steps, seed)
        errors = relative_errors(losses, oracle)
        worst = max(worst, float(errors.max()))
        print(
            f"seed {seed}: {int(np.count_nonzero(errors))}/{steps} losses "
            f"differ from the oracle's, at most {errors.max():.2e} relative"
        )
    print(f"worst {worst:.2e} relative (tolerance {LOSS_RTOL:.0e})")
    return 0 if worst <= LOSS_RTOL else 1


if __name__ == "__main__":
    sys.exit(main())
