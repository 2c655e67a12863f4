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
