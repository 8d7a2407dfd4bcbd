"""The vectorized ``%.17g`` formatter and reader against Python's, bit for bit."""

import math
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_stirling import _format
from spin_stirling._format import (
    _Layout, _csv_layout, _deduped, _padded, _parse_17g, _table, _text_17g,
)


def reference_17g(values):
    return [b"%.17g" % value for value in np.asarray(values, dtype=float).tolist()]


def text_17g(values):
    """The rows of ``_text_17g(values)`` as bytes, their padding stripped."""
    return _text_17g(values).view("S24").ravel().tolist()


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
        assert text_17g(values) == reference_17g(values)

    def test_an_exact_tie_that_rounds_up_takes_the_fallback(self):
        # 1125899906842624.75 lies halfway between two 17-digit decimals;
        # half to even rounds up, which the certified path never does on
        # its own, so a match shows that the value was handed to Python.
        value = 2.0**50 + 0.75
        assert (b"%.17g" % value) == b"1125899906842624.8"
        assert text_17g(np.array([value, 1.5])) == [b"1125899906842624.8", b"1.5"]

    def test_empty_input(self):
        text = _text_17g(np.array([]))
        assert text.shape == (0, 24) and text.dtype == np.uint8

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_text_rows_are_nul_padded(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        for row, expected in zip(_text_17g(values), reference_17g(values)):
            assert row.tobytes() == expected.ljust(24, b"\0")

    def test_fallback_rows_hold_pythons_bytes(self):
        # Zeros, non-finite values, the least subnormal and a decimal tie
        # are all formatted by Python, between two certified values.
        values = np.array(
            [1.5, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.0**50 + 0.75, 0.1]
        )
        text = _text_17g(values)
        assert [row.tobytes() for row in text] == [
            expected.ljust(24, b"\0") for expected in reference_17g(values)
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns_match_python(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert text_17g(values) == reference_17g(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_floats_match_python(self, values):
        assert text_17g(np.array(values)) == reference_17g(values)


def fields(texts):
    """NUL-padded 24-byte rows, one per text of at most 24 bytes."""
    assert max(map(len, texts)) <= 24
    return np.array(texts, dtype="S24").view(np.uint8).reshape(len(texts), 24)


def float_bits(texts):
    return np.array([float(text) for text in texts]).view(np.int64)


def parse_bits(texts):
    return _parse_17g(fields(texts)).view(np.int64)


def finite_17g(values):
    """The ``%.17g`` texts of the finite values: the export numbers."""
    values = np.asarray(values, dtype=float)
    return text_17g(values[np.isfinite(values)])


PLAIN = re.compile(rb"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
# Fields of that grammar up to 24 bytes, the field width: mantissas whose
# digits (the point read as a 0) pass 1e19 with one-digit exponents, or
# shorter mantissas with exponents of up to four digits.
GRAMMAR_SAMPLE = (
    rb"-?((0|[1-9][0-9]{0,10})(\.[0-9]{1,8})?([eE][+-]?[0-9])?"
    rb"|(0|[1-9][0-9]{0,7})(\.[0-9]{1,8})?([eE][+-]?[0-9]{1,4})?)"
)


def export_number(text):
    """Whether ``text`` is in the grammar and float() holds it finitely."""
    return PLAIN.fullmatch(text) is not None and math.isfinite(float(text))


class TestParse17g:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
    def test_formatted_bit_patterns_read_back_like_float(self, patterns):
        texts = finite_17g(np.array(patterns, dtype=np.int64).view(np.float64))
        if texts:
            assert np.array_equal(parse_bits(texts), float_bits(texts))

    @pytest.mark.parametrize("family", sorted(TestFormat17g.FAMILIES))
    def test_families_read_back_like_float(self, family):
        texts = finite_17g(TestFormat17g.FAMILIES[family]())
        assert np.array_equal(parse_bits(texts), float_bits(texts))

    def test_short_hand_written_forms(self):
        texts = [b"1.5", b"1e5", b"1E+05", b"-0", b"0.000123", b"7", b"-2.50e-3"]
        assert np.array_equal(parse_bits(texts), float_bits(texts))
        assert math.copysign(1.0, _parse_17g(fields([b"-0"]))[0]) < 0

    def test_decimal_ties_round_like_float(self):
        # Each lies halfway between two doubles; float() rounds half to
        # even: 2**53 + 1 down to 2**53, 2**52 + 1.5 up to 2**52 + 2.
        texts = [
            b"9007199254740993", b"9007199254740995", b"4503599627370496.5",
            b"4503599627370497.5",
        ]
        assert np.array_equal(parse_bits(texts), float_bits(texts))
        values = _parse_17g(fields(texts)).tolist()
        assert values[:4] == [2.0**53, 2.0**53 + 4, 2.0**52, 2.0**52 + 2]

    def test_range_ends_and_long_mantissas_go_to_float(self):
        texts = [
            b"1e-400", b"-1e-400", b"9999999999999999999e-290",
            b"123456789012345678901234", b"0e999",
        ]
        assert np.array_equal(parse_bits(texts), float_bits(texts))
        assert _parse_17g(fields(texts))[:2].tolist() == [0.0, -0.0]

    @pytest.mark.parametrize(
        "text",
        [
            b"01", b"-00.5", b"00e5", b"nan", b"inf", b"-inf", b"+1", b"1.", b".5",
            b" 1", b"1_0", b"1.e5", b"1e", b"1e400", b"-1e400",
            b"9999999999999999999e290",
            # An exponent of 2**64 + 5 - 10**21 + 10**19: read modulo 2**64
            # with a clipped power of ten, it would come out as 5.
            b"1e06124179980315787269",
        ],
    )
    def test_other_text_reads_as_none(self, text):
        assert not export_number(text)
        assert _parse_17g(fields([b"1.5", text])) is None

    @pytest.mark.parametrize("text", [b"1\x002", b"\x0012", b"12\x00\x003"])
    def test_a_nul_inside_a_field_is_not_padding(self, text):
        matrix = np.zeros((1, 24), np.uint8)
        matrix[0, : len(text)] = np.frombuffer(text, np.uint8)
        assert _parse_17g(matrix) is None

    def test_empty_input(self):
        assert _parse_17g(np.zeros((0, 24), np.uint8)).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.from_regex(GRAMMAR_SAMPLE, fullmatch=True), min_size=1))
    def test_grammar_fields_read_like_float(self, texts):
        values = _parse_17g(fields(texts))
        if all(map(export_number, texts)):
            assert np.array_equal(values.view(np.int64), float_bits(texts))
        else:  # an exponent of up to four digits can overflow
            assert values is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text("0123456789.eE+-", min_size=1, max_size=8), min_size=1))
    def test_grammar_mask_matches_the_pattern(self, strings):
        texts = [text.encode() for text in strings]
        read = [_parse_17g(fields([text])) for text in texts]
        assert [v is not None for v in read] == list(map(export_number, texts))
        for text, values in zip(texts, read):
            if values is not None:
                assert values.view(np.int64).tolist() == float_bits([text]).tolist()
        whole = _parse_17g(fields(texts))
        assert (whole is None) == any(v is None for v in read)


class TestTable:
    """The columns and block pairs of :func:`_table`."""

    LINES = _Layout(
        head=b"[", row=b"%s", separator=b"\n", tail=b"]", nan=b"", absent=b"",
        tokens=[],
    )

    @pytest.fixture(autouse=True)
    def four_row_blocks(self, monkeypatch):
        monkeypatch.setattr(_format, "_BLOCK_ROWS", 4)

    @pytest.mark.parametrize("rows", [1, 4, 5, 8, 9, 13])
    def test_pairs_write_the_rows_in_order(self, rows):
        text = b"".join(_table(self.LINES, [np.arange(float(rows))]))
        assert text == b"[" + b"\n".join(b"%d" % k for k in range(rows)) + b"]"

    def test_an_error_in_the_callers_block_waits_for_the_helper(self, monkeypatch):
        class BlockError(Exception):
            pass

        built = []
        text_17g = _format._text_17g

        def failing_on_the_first_block(values):
            if values[0] == 0.0:
                raise BlockError("first block")
            time.sleep(0.05)
            built.append(int(values[0]))
            return text_17g(values)

        monkeypatch.setattr(_format, "_text_17g", failing_on_the_first_block)
        baseline = threading.active_count()
        with pytest.raises(BlockError, match="^first block$"):
            b"".join(_table(self.LINES, [np.arange(8.0)]))
        assert built == [4]
        assert threading.active_count() == baseline

    def test_no_helper_outlives_a_yielded_block(self):
        baseline = threading.active_count()
        chunks = _table(self.LINES, [np.arange(16.0)])
        blocks = [b"[", b"0\n1\n2\n3\n", b"4\n5\n6\n7\n"]
        assert [next(chunks) for _ in range(3)] == blocks
        assert threading.active_count() == baseline
        chunks.close()

    JSON = _Layout(
        head=b"[\n", row=b'{"x": %s, "eta": %s, "mode": %s, "r": %s}', separator=b",\n",
        tail=b"\n]\n", nan=b"null", absent=b"null", tokens=[b'"engine"', b'"fridge"'],
    )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_row_holds_every_column_kind(self, fmt):
        csv = _csv_layout(["x", "eta", "mode", "r"], ["engine", "fridge"])
        layout = csv if fmt == "csv" else self.JSON
        nan = np.nan
        text = b"".join(_table(layout, [
            np.array([1.5, nan, -2.0]),
            np.array([0.25, nan, 0.5]),
            np.array([0, 1, 0], np.int8),
            _deduped(layout, np.array([0.0, -0.0, nan])),
        ], absent=1))
        # Row 2 holds a NaN in a plain column and in an absent-on-NaN one.
        assert text == {
            "csv": b"x,eta,mode,r\n1.5,0.25,engine,0\n"
            b"nan,,fridge,-0\n-2,0.5,engine,nan\n",
            "json": b'[\n{"x": 1.5, "eta": 0.25, "mode": "engine", "r": 0},\n'
            b'{"x": null, "eta": null, "mode": "fridge", "r": -0},\n'
            b'{"x": -2, "eta": 0.5, "mode": "engine", "r": null}\n]\n',
        }[fmt]

    def test_a_column_of_another_dtype_is_refused(self):
        with pytest.raises(TypeError, match="^column 0 is int64, not float64 or int8$"):
            b"".join(_table(self.LINES, [np.arange(3)]))
