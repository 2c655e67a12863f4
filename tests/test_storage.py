"""Unit tests for the page layout and feature store."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, StorageError
from repro.storage.feature_store import FeatureStore
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
        assert list(layout.first_page_of(np.array([0, 8, 16]))) == [0, 1, 2]

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
        assert store.is_materialized
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
