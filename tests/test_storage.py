"""Unit tests for the page layout and feature store."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, StorageError
from repro.storage.feature_store import _BLOCK_ELEMENTS, FeatureStore
from repro.storage.layout import PageLayout


class TestPageLayout:
    def test_nodes_per_page_small_features(self):
        """Dim-128 float32 features: 512 B each, 8 per 4 KB page."""
        layout = PageLayout(num_nodes=100, feature_bytes=512)
        assert layout.nodes_per_page == 8
        assert layout.pages_per_node == 1

    def test_pages_per_node_large_features(self):
        layout = PageLayout(num_nodes=100, feature_bytes=8192)
        assert layout.pages_per_node == 2

    def test_exact_fit(self):
        """Dim-1024 features are exactly one page (IGB datasets)."""
        layout = PageLayout(num_nodes=100, feature_bytes=4096)
        assert layout.nodes_per_page == 1
        assert layout.pages_per_node == 1

    def test_total_pages(self):
        layout = PageLayout(num_nodes=10, feature_bytes=512)
        assert layout.total_pages == 2  # 10 * 512 = 5120 B -> 2 pages

    def test_pages_for_nodes_dedups_shared_pages(self):
        layout = PageLayout(num_nodes=100, feature_bytes=512)
        pages = layout.pages_for_nodes(np.array([0, 1, 7, 8]))
        # Nodes 0,1,7 share page 0; node 8 is on page 1.
        assert list(pages) == [0, 1]

    def test_straddling_features(self):
        """MAG240M-style 3072 B features straddle 4 KB page boundaries."""
        layout = PageLayout(num_nodes=100, feature_bytes=3072)
        # Node 1 spans bytes [3072, 6144) -> pages 0 and 1.
        pages = layout.pages_for_nodes(np.array([1]))
        assert list(pages) == [0, 1]
        # Node 0 fits in page 0 alone.
        assert list(layout.pages_for_nodes(np.array([0]))) == [0]
        # All returned pages must stay below total_pages.
        everything = layout.pages_for_nodes(np.arange(100))
        assert everything.max() < layout.total_pages

    def test_pages_for_nodes_multi_page_nodes(self):
        layout = PageLayout(num_nodes=100, feature_bytes=8192)
        pages = layout.pages_for_nodes(np.array([0, 1]))
        assert list(pages) == [0, 1, 2, 3]

    @given(
        # aligned (8 per page), exact fit, straddling, multi-page, and a
        # multi-page size that is not a whole number of pages
        feature_bytes=st.sampled_from([512, 4096, 3072, 8192, 10000]),
        nodes=st.lists(st.integers(0, 199), max_size=50),
        presorted=st.booleans(),
    )
    def test_pages_for_nodes_is_the_union_of_byte_ranges(
        self, feature_bytes, nodes, presorted
    ):
        layout = PageLayout(num_nodes=200, feature_bytes=feature_bytes)
        if presorted:
            nodes = sorted(nodes)
        want = set()
        for node in nodes:
            first = node * feature_bytes // layout.page_bytes
            last = ((node + 1) * feature_bytes - 1) // layout.page_bytes
            want.update(range(first, last + 1))
        pages = layout.pages_for_nodes(np.array(nodes, dtype=np.int64))
        assert pages.dtype == np.int64
        assert pages.tolist() == sorted(want)

    def test_pages_for_nodes_empty(self):
        layout = PageLayout(num_nodes=10, feature_bytes=4096)
        assert len(layout.pages_for_nodes(np.array([], dtype=np.int64))) == 0

    def test_out_of_range(self):
        layout = PageLayout(num_nodes=10, feature_bytes=4096)
        with pytest.raises(ConfigError):
            layout.pages_for_nodes(np.array([10]))

    def test_first_page_of(self):
        layout = PageLayout(num_nodes=100, feature_bytes=512)
        assert list(layout.pages_for_nodes(np.array([0, 8, 16]))) == [0, 1, 2]

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            PageLayout(num_nodes=0, feature_bytes=512)
        with pytest.raises(ConfigError):
            PageLayout(num_nodes=10, feature_bytes=0)


class TestFeatureStore:
    def test_synthetic_shape_and_range(self):
        store = FeatureStore(100, 64)
        x = store.fetch(np.array([0, 50, 99]))
        assert x.shape == (3, 64)
        assert x.dtype == np.float32
        assert np.all(x >= -1.0) and np.all(x < 1.0)

    def test_synthetic_deterministic(self):
        a = FeatureStore(100, 64).fetch(np.array([3, 7]))
        b = FeatureStore(100, 64).fetch(np.array([3, 7]))
        assert np.array_equal(a, b)

    def test_synthetic_seed_changes_values(self):
        a = FeatureStore(100, 64, seed=0).fetch(np.array([3]))
        b = FeatureStore(100, 64, seed=1).fetch(np.array([3]))
        assert not np.array_equal(a, b)

    def test_synthetic_rows_differ(self):
        x = FeatureStore(100, 64).fetch(np.array([1, 2]))
        assert not np.array_equal(x[0], x[1])

    def test_synthetic_values_well_distributed(self):
        x = FeatureStore(1000, 32).fetch(np.arange(1000))
        assert abs(float(x.mean())) < 0.05
        assert 0.45 < float(x.std()) < 0.7  # uniform on [-1,1): std ~0.577

    #: SHA-256 of generated bytes, computed at the commit before
    #: ``_synthetic`` went in-place and chunked: whole chunks, a ragged
    #: multi-chunk request of repeated unsorted ids, and page payloads.
    SYNTHETIC_SHA256 = {
        "wide rows": "49d2217f16e50ba38fffa5aa86f45b68"
        "9021c336b814cdedd88b7438388f8bde",
        "salted rows": "a308ead290754b234c2a9d526502ceac"
        "790d0fb8d57bf2963ba2cb0b87b848da",
        "wide pages": "2becb347bea83f4d94e4010c3274a58b"
        "7fba166d0b4eb466e847624c39b3408e",
        "salted pages": "780f887283581549f2940d2cb982a5f7"
        "d1efc9ace7bfcb7de18af44a8e430cfc",
    }

    def test_synthetic_bytes_are_pinned(self):
        def sha(array):
            return hashlib.sha256(
                np.ascontiguousarray(array).tobytes()
            ).hexdigest()

        wide = FeatureStore(8000, 1024)
        salted = FeatureStore(5000, 100, seed=7)
        ids = np.random.default_rng(5).integers(0, 5000, 2500)
        wide_pages = (0, 1, 4097, wide.layout.total_pages - 1)
        salted_pages = (0, 3, salted.layout.total_pages - 1)
        assert {
            "wide rows": sha(wide.fetch(np.arange(4096))),
            "salted rows": sha(salted.fetch(ids)),
            "wide pages": sha(
                np.stack([wide.page_payload(p) for p in wide_pages])
            ),
            "salted pages": sha(
                np.stack([salted.page_payload(p) for p in salted_pages])
            ),
        } == self.SYNTHETIC_SHA256

    def test_materialized_roundtrip(self):
        data = np.random.default_rng(0).random((10, 4), dtype=np.float32)
        store = FeatureStore(10, 4, data=data)
        assert np.array_equal(store.fetch(np.array([2, 5])), data[[2, 5]])

    def test_materialized_shape_checked(self):
        with pytest.raises(StorageError):
            FeatureStore(10, 4, data=np.zeros((10, 5), dtype=np.float32))

    def test_fetch_out_of_range(self):
        store = FeatureStore(10, 4)
        with pytest.raises(StorageError):
            store.fetch(np.array([10]))
        with pytest.raises(StorageError):
            store.fetch(np.array([-1]))

    def test_fetch_empty(self):
        store = FeatureStore(10, 4)
        assert store.fetch(np.array([], dtype=np.int64)).shape == (0, 4)

    @pytest.mark.parametrize("materialized", [False, True])
    @pytest.mark.parametrize(
        "ids",
        [
            np.array([[1, 2], [3, 4]]),  # 2-D
            np.array(3),  # 0-D
            np.array([1.7, 2.2]),  # floats: never truncated to rows 1, 2
            np.array([1.0, 2.0]),  # integral floats are floats too
            np.array([True, False]),  # bools: never rows 1 and 0
            np.array(["1", "2"]),
            np.array([], dtype=np.float64),
        ],
        ids=["2-D", "0-D", "float", "integral float", "bool", "str",
             "empty float"],
    )
    def test_fetch_rejects_anything_but_1d_integer_ids(self, ids, materialized):
        data = np.zeros((10, 4), dtype=np.float32) if materialized else None
        store = FeatureStore(10, 4, data=data)
        with pytest.raises(StorageError, match="1-D integer"):
            store.fetch(ids)

    @pytest.mark.parametrize("materialized", [False, True])
    def test_fetch_takes_every_integer_dtype(self, materialized):
        data = (
            np.arange(40, dtype=np.float32).reshape(10, 4)
            if materialized else None
        )
        store = FeatureStore(10, 4, data=data)
        want = store.fetch(np.array([7, 0, 7], dtype=np.int64))
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            got = store.fetch(np.array([7, 0, 7], dtype=dtype))
            assert got.tobytes() == want.tobytes()
        assert store.fetch([7, 0, 7]).tobytes() == want.tobytes()

    @given(
        dim=st.sampled_from((1, 3, 100, 1024, 4096)),
        # ``(blocks, extra rows)``: a few rows, or k blocks' rows +- 1.
        length=st.one_of(
            st.tuples(st.just(0), st.sampled_from((1, 2, 8))),
            st.tuples(st.integers(1, 3), st.sampled_from((-1, 0, 1))),
        ),
        distinct=st.integers(1, 24),
        seed=st.integers(0, 2**16),
        salt=st.sampled_from((0, 7, 2**63 + 5)),
    )
    def test_fetch_is_its_rows_fetched_one_at_a_time(
        self, dim, length, distinct, seed, salt
    ):
        """Across hash-block boundaries (``k`` blocks' rows, ``+- 1``) and
        for a few rows, unsorted and repeated ids: each row equals that
        row fetched alone."""
        blocks, extra = length
        n = blocks * max(1, _BLOCK_ELEMENTS // dim) + extra
        rng = np.random.default_rng(seed)
        store = FeatureStore(2**40, dim, seed=salt)
        pool = rng.integers(0, 2**40, distinct)
        ids = pool[rng.integers(0, distinct, n)]
        alone = {int(i): store.fetch(np.array([i])) for i in pool}
        want = np.concatenate([alone[int(i)] for i in ids])
        assert store.fetch(ids).tobytes() == want.tobytes()

    def test_sizes(self):
        store = FeatureStore(10, 1024)
        assert store.feature_bytes == 4096
        assert store.total_bytes == 40960

    def test_layout_consistent(self):
        store = FeatureStore(10, 1024)
        assert store.layout.pages_per_node == 1
        assert store.layout.num_nodes == 10

    def test_invalid_construction(self):
        with pytest.raises(StorageError):
            FeatureStore(0, 4)
        with pytest.raises(StorageError):
            FeatureStore(4, 0)
