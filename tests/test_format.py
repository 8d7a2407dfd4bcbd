"""The vectorized ``%.17g`` formatter against Python's, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_stirling._format import _format_17g


def reference_17g(values):
    return [b"%.17g" % value for value in np.asarray(values, dtype=float).tolist()]


def with_ulp_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


class TestFormat17g:
    FAMILIES = {
        "powers of ten": lambda: with_ulp_neighbours(
            [10.0**k for k in range(-25, 26)]
        ),
        "17- and 18-digit integers": lambda: np.array(
            [
                12345678901234567.0, 99999999999999999.0, 10000000000000001.0,
                123456789012345678.0, 999999999999999999.0, 100000000000000003.0,
            ]
        ),
        # m * 2**-k whose decimal expansion has 18 digits ending in 5: an
        # exact tie at 17 digits, rounded half to even.
        "exact binary ties": lambda: np.array(
            [
                2.0**50 + 0.25, 2.0**50 + 0.75, -(1e15 + 0.25), 1e15 + 0.75,
                123456789012345.125, 123456789012345.375,
            ]
        ),
        "zeros and non-finite": lambda: np.array(
            [0.0, -0.0, math.inf, -math.inf, math.nan]
        ),
        "range ends": lambda: np.array(
            [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        ),
        "layout switches": lambda: with_ulp_neighbours([1e-4, -1e-4, 1e17, -1e17, 1e16]),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_match_python(self, family):
        values = self.FAMILIES[family]()
        assert _format_17g(values) == reference_17g(values)

    def test_an_exact_tie_that_rounds_up_takes_the_fallback(self):
        # 1125899906842624.75 lies halfway between two 17-digit decimals;
        # half to even rounds up, which the certified path never does on
        # its own, so a match shows that the value was handed to Python.
        value = 2.0**50 + 0.75
        assert (b"%.17g" % value) == b"1125899906842624.8"
        assert _format_17g(np.array([value, 1.5])) == [b"1125899906842624.8", b"1.5"]

    def test_empty_input(self):
        assert _format_17g(np.array([])) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns_match_python(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert _format_17g(values) == reference_17g(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_floats_match_python(self, values):
        assert _format_17g(np.array(values)) == reference_17g(values)
