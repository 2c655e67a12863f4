"""Differential test: graph set-up's two linear primitives against NumPy.

* ``graph/csr._stable_order`` (an LSD radix sort over 16-bit digits) must
  return ``np.argsort(ids, kind="stable")`` for int32 and int64 ids of one
  to three digits, heavy duplicates, sorted and reversed inputs.
* ``graph/generators._choice`` (a guided inverse-CDF search) must return
  ``Generator.choice(n, size, p=p)`` and leave the generator in the same
  state, for Zipf skews 0-3, zero weights anywhere (leading and trailing
  ones too), a single node, ``size`` 0 and draws across block boundaries.

Tier 1 runs the default Hypothesis profile (~1 s); CI's full-graph job runs
``--hypothesis-profile=differential --hypothesis-seed=0`` (500 examples).
"""

from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from repro.graph import generators
from repro.graph.csr import _stable_order
from repro.graph.generators import _choice, _search, _zipf_weights


@given(st.data())
def test_stable_order_is_the_stable_argsort(data):
    length = data.draw(st.integers(0, 5_000), "length")
    num_nodes = data.draw(
        st.integers(0, 33).flatmap(
            lambda bits: st.integers(max(1, 2 ** (bits - 1)), 2**bits)
        ),
        "num_nodes",
    )
    dtype = data.draw(st.sampled_from([np.int32, np.int64]), "dtype")
    high = min(num_nodes, np.iinfo(dtype).max)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # A small pool of ids makes long runs of duplicates.
    pool = data.draw(st.sampled_from([1, 3, 50, None]), "distinct ids")
    if pool is None:
        ids = rng.integers(0, high, length)
    else:
        ids = rng.choice(rng.integers(0, high, pool), length)
    ids = ids.astype(dtype)
    shape = data.draw(st.sampled_from(["random", "sorted", "reversed"]))
    if shape != "random":
        ids.sort()
    if shape == "reversed":
        ids = ids[::-1]

    np.testing.assert_array_equal(
        _stable_order(ids, num_nodes), np.argsort(ids, kind="stable")
    )


@st.composite
def probabilities(draw):
    """Zipf weights, or random weights with zeros anywhere."""
    n = draw(st.integers(1, 300), "n")
    if draw(st.booleans(), "zipf"):
        return _zipf_weights(n, draw(st.floats(0.0, 3.0), "skew"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(n)
    weights[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    weights[: draw(st.integers(0, n - 1), "leading zeros")] = 0.0
    trailing = draw(st.integers(0, n - 1), "trailing zeros")
    weights[n - trailing :] = 0.0
    if not weights.any():
        weights[draw(st.integers(0, n - 1), "the one positive")] = 1.0
    return weights / weights.sum()


@given(
    probabilities(),
    st.integers(0, 2_000),
    st.sampled_from([1, 7, 64, generators._DRAW_BLOCK]),
    st.integers(0, 2**32 - 1),
)
def test_choice_is_generator_choice(p, size, block, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(generators, "_DRAW_BLOCK", block):
        got = _choice(got_rng, p, size)
    want = want_rng.choice(len(p), size=size, p=p)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_blocks_concatenate_to_one_call():
    """Draws of one, two and four blocks at the real block size."""
    block = generators._DRAW_BLOCK
    p = _zipf_weights(1_000, 0.8)
    for size in (block - 1, block, block + 1, 3 * block + 5):
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        np.testing.assert_array_equal(
            _choice(got_rng, p, size),
            want_rng.choice(len(p), size=size, p=p),
        )
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_search_at_every_bucket_edge():
    """A CDF holding every bucket edge ``j / buckets``, searched just below
    each edge (where ``floor(u * buckets)`` rounds up), at each edge, and in
    a bucket crowded past the step-up limit."""
    n = 1_000
    buckets = generators._GUIDE_PER_NODE * n
    edges = np.arange(1, buckets) / buckets
    crowded = np.linspace(edges[10], edges[11], 50, endpoint=False)
    cdf = np.unique(np.concatenate([edges[::4], crowded, [1.0]]))
    guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")
    u = np.concatenate(
        [np.nextafter(edges, 0.0), edges, crowded, np.nextafter(crowded, 1.0)]
    )
    np.testing.assert_array_equal(
        _search(cdf, guide, u), np.searchsorted(cdf, u, side="right")
    )
