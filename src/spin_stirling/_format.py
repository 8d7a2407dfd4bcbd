"""The package's file boundary: text decoding, file writes and table text.

:func:`decode` turns input bytes into text, :func:`decoding` guards a
read that decodes as it goes, and :func:`write` puts output bytes in a
file; all three raise the package's typed errors, so every reader and
writer fails the same way.  Exports write every float as ``%.17g``
(17 significant digits, exact under roundtrip).  Formatting each value
through Python would cost most of a mode-map export, so
:func:`_text_17g` produces the same bytes for a whole array at once, as
a NUL-padded byte matrix, and hands Python only the values it cannot
certify.  :func:`_table` writes every exported table, the mode maps and
the engine curve, from the table's columns, so no writer spells a field:
floats as ``%.17g`` with a literal for NaN, mode codes as their tokens,
and gathers of texts formatted once (:func:`_deduped`).  It lays out a
block of rows at a time, as one byte matrix with the layout's literals
in fixed columns.  A table of several blocks builds them two at a time,
the second of each pair on a helper thread, and writes them in order, so
the bytes are the same as one thread's.  Reading inverts both:
:func:`_scan` finds a table's fields and checks every literal byte
around them, :func:`_fields` gathers the fields into such a matrix, and
:func:`_parse_17g` reads export numbers back into the doubles that
``float()`` gives.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


@contextlib.contextmanager
def decoding(error_type: type[Exception], what: str) -> Iterator[None]:
    """Raise a UTF-8 decoding failure in the block as ``error_type``,
    naming ``what`` and the offset of the bad byte."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error_type(
            f"{what} is not UTF-8: byte {exc.start} ({exc.reason})"
        ) from None


def decode(data: bytes, error_type: type[Exception], what: str) -> str:
    """``data`` as UTF-8 text; bad bytes raise ``error_type`` with their offset."""
    with decoding(error_type, what):
        return data.decode("utf-8")


def write(path: str, chunks: Iterable[bytes], what: str) -> None:
    """Write ``chunks`` to ``path``; an OS error names ``what`` and the path."""
    try:
        with open(path, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write {what}: {exc.strerror}", path) from exc


#: Decimal scales p of the power-of-ten table.  A double whose |x| * 10**p
#: falls in [1e16, 1e17) for some p in this range is formatted by
#: :func:`_text_17g` itself; hi and lo of every entry are normal
#: doubles, and no intermediate product can overflow.
_P_MIN, _P_MAX = -270, 300
#: 2**27 + 1: Veltkamp's constant, which splits a double into two halves
#: whose pairwise products are exact.
_SPLITTER = 134217729.0
#: How far from 0.5 the scaled fraction must be for its rounding to be
#: trusted; the double-double product is off by less than 1e-14 units of
#: the 17th digit.
_TIE_SLACK = 1e-9


def _split(a):
    """Two halves of ``a`` whose sum is ``a`` exactly."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _powers_of_ten() -> np.ndarray:
    """Rows (hi, hi's high half, hi's low half, lo), p from _P_MIN to _P_MAX.

    hi is 10**p rounded to a double and lo is the remainder rounded to a
    double, so hi + lo is 10**p to about 2**-106.  Both come from exact
    integers: int-to-float conversion and int true division are
    correctly rounded.
    """
    rows = []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            den = 10**-p
            hi = 1 / den
            num, pow2 = hi.as_integer_ratio()
            lo = (pow2 - num * den) / (pow2 * den)
        rows.append((hi, *_split(hi), lo))
    return np.array(rows)


def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one uint32 each, and how many
    of them are trailing zeros."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)
    text = np.ascontiguousarray(digits.T) + np.uint8(ord("0"))
    zeros = np.cumprod(digits[::-1] == 0, axis=0, dtype=np.int8).sum(axis=0, dtype=np.int8)
    return text.view(np.uint32).ravel(), zeros


_POWERS_OF_TEN = _powers_of_ten()
_QUADS, _TRAILING_ZEROS = _digit_groups()

# Columns of the per-value source bytes that layouts gather from: the
# 17 digits are preceded by three '0' bytes (the first of four 4-digit
# groups), then come the exponent's four digits and its sign, and the
# constant bytes.
_DIGIT = 3  # the first significant digit; column 0 is a '0'
_EXP_DIGITS = 20  # '0', hundreds, tens, ones
_EXP_SIGN = 24
_MINUS, _POINT, _E, _NUL = 25, 26, 27, 28
_SOURCE_WIDTH = 29
_TEXT_WIDTH = 24  # the longest %.17g text, "-1.2345678901234567e-100"

# A layout is a sign and a form: fixed notation with decimal exponent
# X in -4..16 (forms 0..20), or exponent notation with a two- or
# three-digit exponent (forms 21 and 22).  Fixed text ends in its
# digits, so one gather, cut at the text's length, serves every count k
# of significant digits left after trailing zeros are stripped; in
# exponent notation the exponent moves left as k falls, so there k is
# part of the layout too.
_FIXED_FORMS = 21


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather columns per layout; layout and text length per (sign, form, k).

    k runs from 1 to 17; the k = 0 entries are padding.
    """
    gathers, layout, length = [], [], []
    digits = list(range(_DIGIT, _DIGIT + 17))
    for sign in ([], [_MINUS]):
        for form in range(_FIXED_FORMS + 2):
            x = form - 4
            for k in range(18):
                if form >= _FIXED_FORMS:  # d[.ddd]e+XX, or e+XXX when wide
                    wide = form > _FIXED_FORMS
                    mantissa = digits[:1] + ([_POINT] + digits[1:k] if k > 1 else [])
                    exponent = list(range(_EXP_DIGITS + 2 - wide, _EXP_DIGITS + 4))
                    cols = mantissa + [_E, _EXP_SIGN] + exponent
                    size = len(cols)
                elif x >= 0:  # ddd[.ddd]
                    cols = digits[: x + 1] + [_POINT] + digits[x + 1 :]
                    size = k + 1 if k > x + 1 else x + 1
                else:  # 0.[000]ddd
                    cols = [0, _POINT] + [0] * (-x - 1) + digits
                    size = 1 - x + k
                if form >= _FIXED_FORMS or k == 0:
                    gathers.append(sign + cols)
                layout.append(len(gathers) - 1)
                length.append(len(sign) + size)
    gathers = [(cols + [_NUL] * _TEXT_WIDTH)[:_TEXT_WIDTH] for cols in gathers]
    return np.array(gathers, np.intp), np.array(layout, np.int8), np.array(length, np.int8)


_GATHERS, _LAYOUT, _LENGTH = _layouts()


#: Row k keeps the first k bytes of a _TEXT_WIDTH-byte field.
_FIELD_MASKS = np.uint8(0xFF) * (
    np.arange(_TEXT_WIDTH) < np.arange(_TEXT_WIDTH + 1)[:, np.newaxis]
)


def _times_power(a, p, tail=0.0) -> tuple[np.ndarray, np.ndarray]:
    """(a + tail) * 10**p as a double-double y + rest, for a ``tail`` far
    below a's last bit: the exact remainder of y = a * hi (Dekker), then
    a * lo + tail * hi."""
    hi, hi_high, hi_low, lo = _POWERS_OF_TEN.take(p - _P_MIN, axis=0).T
    a_high, a_low = _split(a)
    y = a * hi
    rest = ((a_high * hi_high - y) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest += a * lo + tail * hi
    return y, rest


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10**p) and its fraction, from a double-double product.

    Correct to well under _TIE_SLACK where the product lies in
    [1e16, 1e17); there its high part is an integer.
    """
    y, rest = _times_power(a, p)
    whole = np.floor(rest)
    return y.astype(np.int64) + whole.astype(np.int64), rest - whole


def _decimal_bytes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The certified 17-digit rounding of each value, as bytes to lay out.

    Returns a mask of the values whose rounding is certified, the
    (len(x), _SOURCE_WIDTH) source bytes of every value, and each
    value's index into _LAYOUT and _LENGTH.
    """
    a = np.abs(x)
    ok = (a >= 10.0 ** (16 - _P_MAX)) & (a < 10.0 ** (17 - _P_MIN))
    a[~ok] = 1.0
    p = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), _P_MIN, _P_MAX)
    n, fraction = _scaled(a, p)
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if len(off):
        p[off] = np.clip(p[off] + np.where(n[off] < 10**16, 1, -1), _P_MIN, _P_MAX)
        n[off], fraction[off] = _scaled(a[off], p[off])
    ok &= (n >= 10**16) & (n < 10**17) & (np.abs(fraction - 0.5) > _TIE_SLACK)
    n += fraction > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    exponent = 16 - p + carry

    # The digits as five 4-digit groups; the first group is "000" + d1.
    source = np.empty((len(x), _SOURCE_WIDTH), np.uint8)
    high, low = np.divmod(n, 10**8)
    group0, group2 = np.divmod(high.astype(np.uint32), np.uint32(10**4))
    group0, group1 = np.divmod(group0, np.uint32(10**4))
    group3, group4 = np.divmod(low.astype(np.uint32), np.uint32(10**4))
    quads = source[:, :20].view(np.uint32)
    for column, group in enumerate((group0, group1, group2, group3, group4)):
        quads[:, column] = _QUADS.take(group)
    source[:, _EXP_DIGITS : _EXP_DIGITS + 4].view(np.uint32)[:, 0] = _QUADS.take(
        np.abs(exponent)
    )
    source[:, _EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    source[:, _MINUS:] = np.frombuffer(b"-.e\0", np.uint8)

    # Significant digits left once trailing zeros are stripped; d1 > 0.
    zeros = _TRAILING_ZEROS.take(group4)
    more = np.flatnonzero(group4 == 0)
    if len(more):
        g1, g2, g3 = group1[more], group2[more], group3[more]
        zeros[more] += _TRAILING_ZEROS.take(g3) + (g3 == 0) * (
            _TRAILING_ZEROS.take(g2) + (g2 == 0) * _TRAILING_ZEROS.take(g1)
        )
    form = np.where(
        (exponent >= -4) & (exponent < 17),
        exponent + 4,
        _FIXED_FORMS + (np.abs(exponent) >= 100),
    )
    row = (np.signbit(x) * (_FIXED_FORMS + 2) + form) * 18 + (17 - zeros)
    return ok, source, row


def _text_17g(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` of each value as a row of a (n, _TEXT_WIDTH) uint8
    matrix, NUL-padded on the right, byte for byte.

    Each value's 17 significant digits are the correctly rounded
    integer part of |x| * 10**p, computed as a double-double product
    with a table of powers of ten; p comes from ``log10`` and is
    corrected by one decade when the unrounded product leaves
    [1e16, 1e17).  A rounding is accepted only when the scaled fraction
    is more than _TIE_SLACK from 0.5.  Zero, non-finite values, values
    outside the table's range and near-ties (including exact decimal
    ties, which round half to even) are formatted by Python instead,
    and their text is written into their rows.

    The text is gathered from each value's digit, exponent and sign
    bytes by a column permutation per layout (sign, fixed decimal-point
    position or exponent form), with values grouped by layout through
    one stable argsort, and cut to length with NUL padding.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if not len(x):
        return np.zeros((0, _TEXT_WIDTH), np.uint8)
    ok, source, row = _decimal_bytes(x)
    layout = _LAYOUT.take(row)
    order = np.argsort(layout, kind="stable")
    layout = layout.take(order)
    source = source.take(order, axis=0)
    cuts = (np.flatnonzero(np.diff(layout)) + 1).tolist()
    text = np.empty((len(x), _TEXT_WIDTH), np.uint8)
    for start, stop in zip([0, *cuts], [*cuts, len(x)]):
        text[start:stop] = source[start:stop, _GATHERS[layout[start]]]
    unsort = np.empty_like(order)
    unsort[order] = np.arange(len(order))
    text = text.take(unsort, axis=0)
    text &= _FIELD_MASKS.take(_LENGTH.take(row), axis=0)
    fallback = np.flatnonzero(~ok)
    if len(fallback):
        text[fallback] = _padded([b"%.17g" % v for v in x[fallback].tolist()])
    return text


def _padded(texts: list[bytes]) -> np.ndarray:
    """``texts`` as NUL-padded rows of a (n, _TEXT_WIDTH) uint8 matrix."""
    return np.array(texts, f"S{_TEXT_WIDTH}").view(np.uint8).reshape(-1, _TEXT_WIDTH)


#: Rows per block of :func:`_table`, and of the records a mode map or an
#: engine curve builds at once.  A table holds two blocks at once, one per thread, so its
#: memory is bounded by two blocks' matrices and temporaries.  With
#: smaller blocks the Python-level numpy calls of each block hold the
#: interpreter lock for too much of the time for the two to overlap.
#: 8192 rows make map-400 faster still, but a 200x200 JSON export and
#: read-back slower, with its peak RSS 10.6% up against 6% at 4096, so
#: 4096 is the largest size that keeps both peak RSS rises within 10%.
_BLOCK_ROWS = 4096


def _both(first: Callable, second: Callable) -> tuple:
    """``first()`` on this thread while a helper thread runs ``second()``.

    Returns both results.  The helper is joined before this returns or
    raises, and an exception it raised is raised here.
    """
    outcome = {}

    def helper() -> None:
        try:
            outcome["result"] = second()
        except BaseException as exc:  # handed to the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        result = first()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome.pop("error")
    return result, outcome["result"]


class _Layout(NamedTuple):
    """The fixed text of one table format around its fields."""

    head: bytes  # before the first row
    row: bytes  # one row, a ``%s`` per field
    separator: bytes  # between rows
    tail: bytes  # after the last row
    nan: bytes  # a NaN value
    absent: bytes  # an absent value
    tokens: list[bytes]  # mode tokens, indexed by mode code


def _csv_layout(columns: Sequence[str], tokens: Iterable[str]) -> _Layout:
    """The CSV layout of a table: a header line of the column names, one
    comma-separated line per row, ``nan`` for NaN, an empty field for an
    absent value, and the mode ``tokens`` as they are."""
    return _Layout(
        head=",".join(columns).encode() + b"\n",
        row=b",".join([b"%s"] * len(columns)),
        separator=b"\n", tail=b"\n", nan=b"nan", absent=b"",
        tokens=[token.encode() for token in tokens],
    )


def _deduped(layout: _Layout, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A float column as a :func:`_table` gather: the texts of its distinct
    values, told apart by bit pattern so that ``-0.0`` and ``0.0`` keep
    their own, with NaN written as ``layout.nan``, and each row's index
    into them."""
    keys, index = np.unique(column.view(np.int64), return_inverse=True)
    texts = _text_17g(keys.view(np.float64))
    texts[np.isnan(keys.view(np.float64))] = _padded([layout.nan])
    return texts, index


def _table(layout: _Layout, columns: Sequence, absent: int | None = None) -> Iterator[bytes]:
    """Yield the bytes of a table, _BLOCK_ROWS rows at a time.

    ``columns`` holds one column per ``%s`` of ``layout.row``, all of the
    table's length: a float64 array, written as ``%.17g`` with NaN as
    ``layout.nan``, or as ``layout.absent`` in the column numbered
    ``absent``; an int8 array of mode codes, written as
    ``layout.tokens``; or a gather ``(texts, index)`` from
    :func:`_deduped`, whose row k is ``texts[index[k]]``.  An array of
    any other dtype raises TypeError.

    A block is one uint8 matrix with a row per table row: the row pieces
    and the separator sit in fixed columns, with a _TEXT_WIDTH-byte slot
    for each field.  One :func:`_text_17g` call per block formats the
    non-NaN values of every float column, over a matrix pre-filled with
    each column's NaN literal.  The last row's separator is
    zeroed, so the tail follows it, and dropping the NUL bytes turns the
    matrix into the block's text in one step.

    With more than one block, blocks are built in pairs: a helper
    thread builds the second block of each pair while this thread builds
    the first (numpy releases the interpreter lock for most of the
    work).  No helper is left running between the blocks this yields.
    """
    *pieces, last = layout.row.split(b"%s")
    template = bytearray()
    tokens = _padded(layout.tokens)
    nan, missing = _padded([layout.nan, layout.absent])
    floats, literals, gathers = [], [], []
    for k, (piece, column) in enumerate(zip(pieces, columns, strict=True)):
        template += piece
        slot = slice(len(template), len(template) + _TEXT_WIDTH)
        template += bytes(_TEXT_WIDTH)
        if isinstance(column, tuple):  # texts and each row's index into them
            gathers.append((slot, *column))
        elif column.dtype == np.int8:
            gathers.append((slot, tokens, column))
        elif column.dtype == np.float64:
            floats.append((slot, column))
            literals.append(missing if k == absent else nan)
        else:
            raise TypeError(f"column {k} is {column.dtype}, not float64 or int8")
    rows = len(gathers[0][2] if gathers else floats[0][1])
    literals = np.stack(literals)
    end = len(template) + len(last)
    template += last + layout.separator
    paired = rows > _BLOCK_ROWS
    template = np.frombuffer(template, np.uint8)
    matrices = [np.tile(template, (min(_BLOCK_ROWS, rows), 1)) for _ in range(1 + paired)]

    def block(matrix: np.ndarray, start: int) -> bytes:
        stop = min(start + _BLOCK_ROWS, rows)
        n = stop - start
        matrix = matrix[:n]
        for slot, texts, index in gathers:
            matrix[:, slot] = texts[index[start:stop]]
        values = np.concatenate([column[start:stop] for _, column in floats])
        present = ~np.isnan(values)
        texts = np.repeat(literals, n, axis=0)  # each float column's NaN literal
        # Scattered as one item per text: several times faster than as bytes.
        item = f"V{_TEXT_WIDTH}"
        texts.view(item)[present] = _text_17g(values[present]).view(item)
        for k, (slot, _) in enumerate(floats):
            matrix[:, slot] = texts[k * n : (k + 1) * n]
        if stop == rows:
            matrix[-1, end:] = 0
        text = matrix.ravel()
        return text[text != 0].tobytes()

    yield layout.head
    for start in range(0, rows, (1 + paired) * _BLOCK_ROWS):
        second = start + _BLOCK_ROWS
        if paired and second < rows:
            yield from _both(
                lambda: block(matrices[0], start), lambda: block(matrices[1], second)
            )
        else:
            yield block(matrices[0], start)
    yield layout.tail


def _windows(buf: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte window of a flat uint8 array, as one item per
    start offset, without copying."""
    return np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))


def _gather(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` at each start, one row per start;
    bytes past the end of ``buf`` read as NUL."""
    last = len(buf) - width
    rows = _windows(buf, width)[np.minimum(starts, last)]
    rows = rows.view(np.uint8).reshape(len(starts), width)
    # Rows that run past the end come from a padded copy of the end.
    over = np.flatnonzero(starts > last)
    if len(over):
        rows[over] = _gather(np.pad(buf[last:], (0, width)), starts[over] - last, width)
    return rows


def _scan(data: bytes, layout: _Layout) -> tuple[np.ndarray, ...] | None:
    """Where the fields of ``data`` lie if it is byte for byte a
    :func:`_table` in ``layout``, else None.

    Returns ``data`` as a uint8 array, and each field's start and length
    (which may be 0, and at most _TEXT_WIDTH) as (rows, fields) arrays.
    A numpy scan of the body finds the delimiter bytes, which start the
    separator and every row piece between two fields, takes each field's
    span from them, and checks every byte of the layout's literals (head,
    row pieces, separator, tail) around the spans.  The tail stands in
    for the last row's separator, as in :func:`_table`.
    """
    pieces = layout.row.split(b"%s")
    if (
        b"\0" in data
        or not data.startswith(layout.head + pieces[0])
        or not data.endswith(pieces[-1] + layout.tail)
    ):
        return None
    buf = np.frombuffer(data, np.uint8)
    head, tail = len(layout.head), len(data) - len(layout.tail)
    marks = buf[:tail] == layout.separator[0]
    for delimiter in {piece[0] for piece in pieces[1:-1]} - {layout.separator[0]}:
        marks |= buf[:tail] == delimiter
    marks = np.flatnonzero(marks)
    marks = marks[np.searchsorted(marks, head) :]  # not the head's own delimiters
    per_row = len(pieces) - 1
    rows = (len(marks) + 1) // per_row
    if not rows or len(marks) != rows * per_row - 1:
        return None
    marks = np.append(marks, tail).reshape(rows, per_row)
    # Field k ends where the literal after it starts.
    ends = marks - ([0] * (per_row - 1) + [len(pieces[-1])])
    starts = np.empty_like(ends)
    starts[0, 0] = head
    starts[1:, 0] = marks[:-1, -1] + len(layout.separator)
    starts[:, 1:] = marks[:, :-1]
    starts += [len(piece) for piece in pieces[:-1]]
    lengths = ends - starts
    if lengths.min() < 0 or lengths.max() > _TEXT_WIDTH:
        return None
    # The literal after each field, compared as 64-bit words masked to
    # its length; the last row's is the tail, which endswith has checked.
    after = [*pieces[1:-1], pieces[-1] + layout.separator + pieces[0]]
    width = 8 * -(-max(map(len, after)) // 8)
    template = np.array(after, f"S{width}").view(np.uint64).reshape(per_row, -1)
    mask = np.array([b"\xff" * len(literal) for literal in after], f"S{width}")
    found = _gather(buf, ends.ravel(), width).view(np.uint64)
    found = found.reshape(rows, per_row, width // 8)
    found[-1, -1] = template[-1]
    np.bitwise_xor(found, template, out=found)
    found &= mask.view(np.uint64).reshape(per_row, -1)
    if found.any():
        return None
    return buf, starts, lengths


def _fields(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The fields at ``starts`` of a :func:`_scan`, one NUL-padded
    _TEXT_WIDTH-byte row each, as :func:`_table` takes them."""
    fields = _gather(buf, starts.ravel(), _TEXT_WIDTH)
    fields &= _FIELD_MASKS.take(lengths.ravel(), axis=0)
    return fields


# Numbers.  A field is a row of a uint8 matrix, NUL-padded on the right.
# Its digit values are copied behind _TEXT_WIDTH zero bytes, so that the
# _TEXT_WIDTH bytes ending at any column of a field are its digits up to
# that column, right-aligned, with every other byte (sign, point, 'e' and
# the padding) read as a 0 digit.  SWAR arithmetic on the three 64-bit
# words of such a window gives its value as a 24-digit integer.

#: Rows per block of :func:`_parse_17g`; a block's temporaries stay in
#: the CPU cache.
_PARSE_ROWS = 8192
#: 10**k for k up to 19, the powers that fit a uint64.
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)
#: The largest exponent a certified field may scale by: below 1e19 times
#: 1e289 a product cannot overflow.
_Q_MAX = 289
_U64 = np.uint64
#: Top byte of ``flags * _BYTE_ONES``: the number of set flag bytes.
_BYTE_ONES = _U64(0x0101010101010101)
#: Top byte of ``flags * _BYTE_INDEX``: the sum of the set flag bytes' indices.
_BYTE_INDEX = _U64(0x0001020304050607)


def _flag_columns(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Set 0/1 bytes per row of a (n, 3) word view of a flag matrix, and
    the sum of their columns."""
    # Each byte of these sums is at most 3, so no partial product carries
    # into the top byte.
    total = words[:, 0] + words[:, 1] + words[:, 2]
    later = words[:, 1] + words[:, 2] + words[:, 2]  # word j counted j times
    count = (total * _BYTE_ONES) >> _U64(56)
    columns = (total * _BYTE_INDEX) >> _U64(56)
    columns += ((later * _BYTE_ONES) >> _U64(56)) << _U64(3)
    return count.astype(np.intp), columns.astype(np.intp)


def _window_values(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each window's 24 digit values (first most significant) as an integer
    modulo 2**64, and whether that integer is below 10**19 (and so exact)."""
    v = windows.view(np.uint64).reshape(-1, 3)
    v = (v * _U64(2561)) >> _U64(8)  # 2-digit groups
    v = ((v & _U64(0x00FF00FF00FF00FF)) * _U64(6553601)) >> _U64(16)  # 4-digit
    v = ((v & _U64(0x0000FFFF0000FFFF)) * _U64(42949672960001)) >> _U64(32)
    return v[:, 0] * _U64(10**16) + v[:, 1] * _U64(10**8) + v[:, 2], v[:, 0] < 1000


def _parse_block(text, digits, windows) -> tuple[np.ndarray, ...]:
    """Values, JSON-number mask and certified mask of a block of (k,
    _TEXT_WIDTH) fields; ``digits`` is the zero-prefixed digit buffer and
    ``windows`` its _TEXT_WIDTH-byte windows."""
    k = len(text)
    digit = text - np.uint8(ord("0"))
    is_digit = digit < 10
    np.multiply(digit, is_digit, out=digits[:k, _TEXT_WIDTH:])
    es = ((text | np.uint8(0x20)) == ord("e")).view(np.uint64)
    # The non-NUL bytes fill columns 0..length-1 exactly when their
    # columns sum to length * (length - 1) / 2, the least sum possible.
    length, columns = _flag_columns((text != 0).view(np.uint64))
    padded = columns == length * (length - 1) // 2
    negative = text[:, 0] == ord("-")
    # The point's column, exact when the field has one point.
    points, point = _flag_columns((text == ord(".")).view(np.uint64))
    has_point = points > 0
    # The mantissa ends at the 'e', or at the field's end.
    end = length.copy()
    rows_e = np.flatnonzero((es[:, 0] | es[:, 1] | es[:, 2]) != 0)
    if len(rows_e):
        flags = es[rows_e].view(np.uint8).reshape(-1, _TEXT_WIDTH)
        end[rows_e] = flags.argmax(axis=1)
    point = np.where(has_point, point, end)
    fraction = (end - point - 1) * has_point
    # The mantissa window reads the point as a 0 digit between the
    # integer part i and the f fraction digits: v = i * 10**(f + 1) + r
    # with r < 10**f, so the mantissa i * 10**f + r is v - 9 * i * 10**f.
    # A certified v is below 1e19, so i is 0 wherever f + 1 passes 19.
    starts = np.arange(0, 2 * _TEXT_WIDTH * k, 2 * _TEXT_WIDTH)
    window, ok = _window_values(windows[starts + end])
    scale = _POW10_U64.take(fraction + 1, mode="clip")
    nines = (scale - _POW10_U64.take(fraction, mode="clip")) * has_point
    mantissa = window - (window // scale) * nines
    exponent = -fraction
    others = negative.astype(np.intp) + has_point
    # JSON's integer part: one or more digits, no 0 before another digit.
    lead = np.where(negative, text[:, 1], text[:, 0]) == ord("0")
    grammar = (point > negative) & ((point == negative + 1) | ~lead)
    grammar &= (fraction > 0) | ~has_point
    if len(rows_e):
        # The window ending at the field's end reads the mantissa window
        # times 10**(length - end) plus the exponent digits.
        e_end, e_length = end[rows_e], length[rows_e]
        after = text.ravel().take(
            rows_e * _TEXT_WIDTH + np.minimum(e_end + 1, _TEXT_WIDTH - 1)
        )
        signed = (after == ord("+")) | (after == ord("-"))
        count = e_length - e_end - 1 - signed
        whole, _ = _window_values(windows[starts[rows_e] + e_length])
        power = (
            whole - window[rows_e] * _POW10_U64.take(e_length - e_end, mode="clip")
        ).astype(np.intp)
        small = count <= 4
        exponent[rows_e] += np.where(after == ord("-"), -power, power) * small
        ok[rows_e] &= small
        grammar[rows_e] &= count > 0
        others[rows_e] += 1 + signed
    digit_count, _ = _flag_columns(is_digit.view(np.uint64))
    grammar &= padded & (digit_count + others == length)
    ok &= grammar & (exponent >= _P_MIN) & (exponent <= _Q_MAX)
    zero = ok & (mantissa == 0)
    mantissa = np.where(ok, mantissa, 0)
    exponent = np.where(ok, exponent, 0)

    # mantissa * 10**exponent as a double-double, rounded once.
    m_hi = mantissa.astype(np.float64)
    m_lo = (mantissa - m_hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    y, rest = _times_power(m_hi, exponent, m_lo)
    value = y + rest
    slip = rest - (value - y)
    # The rounding stands when the slip is clearly under half the gap to
    # the next double toward zero, the smaller of the two gaps.
    gap = value - (value.view(np.int64) - 1).view(np.float64)
    ok &= np.abs(slip) < (0.5 - _TIE_SLACK) * gap
    ok |= zero
    value.view(np.uint64)[...] |= negative.astype(np.uint64) << _U64(63)
    return value, grammar, ok


def _parse_17g(text: np.ndarray) -> np.ndarray | None:
    """``[float(t) for t in fields]`` as float64, bit for bit, when every
    field is an export number, else None.

    ``text`` is a (n, _TEXT_WIDTH) uint8 matrix with one field per row,
    NUL-padded on the right.  An export number is a JSON number,
    ``-?(0|[1-9]D*)(.D+)?([eE][+-]?D+)?``, that ``float()`` holds finitely.

    A field is read as an integer mantissa m and a decimal exponent q,
    and m * 10**q is formed as a double-double product with the table of
    powers of ten and rounded once.  The rounding is accepted only when
    it is more than _TIE_SLACK of a unit in the last place from a tie.
    The fields this cannot certify go to ``float()``, which reads every
    field of the grammar: fields whose digits (the point read as a 0)
    reach 1e19, exponents of more than four digits, q outside -270..289
    (so no certified result is subnormal or overflows) and near-ties
    such as ``9007199254740993``.
    """
    text = np.ascontiguousarray(text, dtype=np.uint8)
    n = len(text)
    values = np.empty(n)
    certified = np.empty(n, bool)
    digits = np.zeros((_PARSE_ROWS, 2 * _TEXT_WIDTH), np.uint8)
    windows = _windows(digits.ravel(), _TEXT_WIDTH)
    for start in range(0, n, _PARSE_ROWS):
        block = slice(start, start + _PARSE_ROWS)
        values[block], grammar, certified[block] = _parse_block(
            text[block], digits, windows
        )
        if not grammar.all():
            return None
    fields = np.flatnonzero(~certified)
    if len(fields):
        texts = text[fields].view(f"S{_TEXT_WIDTH}").ravel().tolist()
        values[fields] = [float(t) for t in texts]
        if np.isinf(values[fields]).any():
            return None
    return values
