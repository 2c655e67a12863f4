"""Unit tests for repro.utils."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError
from repro.utils import (
    as_rng,
    ceil_div,
    format_bytes,
    format_rate,
    format_time,
    sorted_unique,
)


class TestAsRng:
    def test_from_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestBoundedIntegerContract:
    """What ``GPUSoftwareCache`` relies on when it draws a run's eviction
    victims in one call: ``rng.integers(0, bounds)`` over an array of
    bounds consumes the bit stream exactly like one scalar
    ``rng.integers(b)`` per bound.  NumPy does not promise this across
    versions; if an upgrade changes bounded-integer generation, this fails
    here instead of as digest drift in every cache-using test."""

    BOUNDS = [
        1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**31,
        2**32 - 1, 2**32, 2**32 + 1, 2**33,
    ]

    @pytest.mark.parametrize("seed", range(8))
    def test_array_bounds_draw_like_scalar_bounds(self, seed):
        order = np.random.default_rng(seed).permutation(len(self.BOUNDS))
        bounds = np.array(self.BOUNDS * 3, dtype=np.int64)[
            np.concatenate([order, order + 10, order + 20])
        ]
        one_call = as_rng(seed)
        per_bound = as_rng(seed)
        bulk = one_call.integers(0, bounds)
        singles = [int(per_bound.integers(b)) for b in bounds]
        message = (
            f"NumPy {np.__version__}: Generator.integers(0, array) no "
            "longer matches per-bound scalar draws; GPUSoftwareCache's "
            "bulk eviction draw would change every eviction order"
        )
        assert bulk.tolist() == singles, message
        assert (
            one_call.bit_generator.state == per_bound.bit_generator.state
        ), message
        # The half-used 32-bit word a draw may leave behind carries over.
        assert one_call.integers(2**20) == per_bound.integers(2**20), message

    def test_rewind_and_redraw_a_prefix(self):
        """A run that ends early restores the state and redraws only the
        bounds it used."""
        bounds = np.array(self.BOUNDS, dtype=np.int64)
        rng = as_rng(5)
        saved = rng.bit_generator.state
        full = rng.integers(0, bounds)
        rng.bit_generator.state = saved
        prefix = rng.integers(0, bounds[:4])
        assert prefix.tolist() == full[:4].tolist()
        reference = as_rng(5)
        for b in bounds[:4]:
            reference.integers(b)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestWeightedChoiceContract:
    """What ``ArrivalProcess`` relies on when it draws a request's priority
    from a cdf it builds once: ``rng.choice(n, p=p)`` is that cdf searched
    (``side="right"``) with one ``rng.random()``, and consumes exactly that
    one double.  NumPy does not promise this across versions; a change
    fails here instead of as a moved arrival trace in every serving test."""

    MIXES = [
        (0.2, 0.6, 0.2),
        (0.05, 0.25, 0.7),
        (0.5, 0.0, 0.5),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0),
        (1 / 3, 1 / 3, 1 / 3),
    ]

    @staticmethod
    def _cdf(mix):
        cdf = np.cumsum(np.asarray(mix, dtype=np.float64))
        return cdf / cdf[-1]

    @pytest.mark.parametrize("mix", MIXES)
    def test_choice_is_a_cdf_search_of_one_random(self, mix):
        message = (
            f"NumPy {np.__version__}: Generator.choice(n, p=p) is no longer "
            "cdf.searchsorted(random(), side='right'); ArrivalProcess's "
            "priority draw would change every arrival trace"
        )
        cdf = self._cdf(mix)
        by_choice, by_search = as_rng(3), as_rng(3)
        # One call per request, the way next_request draws: lock step.
        for _ in range(2000):
            want = int(by_choice.choice(len(mix), p=list(mix)))
            got = int(cdf.searchsorted(by_search.random(), side="right"))
            assert got == want, message
            assert (
                by_choice.bit_generator.state == by_search.bit_generator.state
            ), message
        # ... and 10**5 more in bulk from where the lock step ended.
        bulk = by_choice.choice(len(mix), size=10**5, p=list(mix))
        searched = cdf.searchsorted(by_search.random(10**5), side="right")
        assert np.array_equal(bulk, searched), message
        assert (
            by_choice.bit_generator.state == by_search.bit_generator.state
        ), message


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kilobytes(self):
        assert format_bytes(4096) == "4.1 KB"

    def test_gigabytes(self):
        assert format_bytes(8e9) == "8.0 GB"

    def test_terabytes(self):
        assert format_bytes(2.773e12) == "2.8 TB"

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            format_bytes(-1)


class TestFormatTime:
    def test_seconds(self):
        assert format_time(1.5) == "1.500 s"

    def test_milliseconds(self):
        assert format_time(0.0123) == "12.300 ms"

    def test_microseconds(self):
        assert format_time(11e-6) == "11.000 us"

    def test_nanoseconds(self):
        assert format_time(5e-9) == "5.0 ns"

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            format_time(-0.1)


class TestFormatRate:
    def test_millions(self):
        assert format_rate(1.5e6) == "1.50M/s"

    def test_small(self):
        assert format_rate(3.0) == "3.00/s"

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            format_rate(-1.0)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_zero_dividend(self):
        assert ceil_div(0, 4) == 0

    def test_zero_divisor_rejected(self):
        with pytest.raises(ConfigError):
            ceil_div(4, 0)

    def test_negative_dividend_rejected(self):
        with pytest.raises(ConfigError):
            ceil_div(-1, 4)


class TestSortedUnique:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [1, 2, 3, 9],  # already sorted and distinct: nothing to do
            [1, 1, 2, 2, 2, 9],  # sorted with repeats: mask only
            [4, 4, 4, 4],
            [9, 1, 4, 1, 9, 0],
            [3, 2, 1],
            [-5, 2, -5, 0],
        ],
    )
    def test_matches_np_unique(self, values, dtype):
        array = np.array(values, dtype=dtype)
        before = array.copy()
        got = sorted_unique(array)
        np.testing.assert_array_equal(got, np.unique(array))
        assert got.dtype == dtype
        np.testing.assert_array_equal(array, before)
        assert not np.shares_memory(got, array)

    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.int32, np.int64]),
            shape=st.integers(0, 60),
            elements=st.integers(-20, 20),
        ),
        st.booleans(),
    )
    def test_property_matches_np_unique(self, array, presorted):
        if presorted:
            array = np.sort(array)
        got = sorted_unique(array)
        want = np.unique(array)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
