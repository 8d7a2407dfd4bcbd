"""Parameter-space exploration of the cycle's operating modes.

The natural control space of the Stirling cycle is the pair of ratios
``j_a / j_b`` and ``t_hot / t_cold``.  The physics is not a function of
the ratios alone (every state function depends on J/T, not on J_A/J_B),
so a grid here always carries an explicit anchor fixing the absolute
scales ``j_b`` and ``t_cold``, plus a branch selecting the sign of
``j_b``.  Published-style ratio maps are reproducible only once those
hidden scales are pinned down, and this module refuses to let them stay
implicit.

Grid cells are evaluated directly through the closed-form kernels, so a
cell with coupling ratio exactly 1 (a zero-width cycle, rejected by
:class:`spin_stirling.cycle.CycleSpec` as user input) still gets the
well-defined limiting values of its heats; such a cell sits on the
work-sign boundary and classifies accordingly.  Cells whose scaled
coupling would exceed the anchor's magnitude cap are flagged: their
energies are NaN and their mode is ``FORBIDDEN``, and the sweep
continues.

Cells go through the same evaluator as single cycles
(:func:`spin_stirling.cycle._evaluate`), so every unflagged cell passes
the first-law closure and isochoric sign checks and is classified by the
one sign table, including the demotion of unresolved heat-engine cells
to accelerators.  Sweeps are serial and deterministic.

A sweep returns a :class:`ModeMap`, which holds the cells as numpy
columns and builds :class:`ModeCell` objects only when a caller indexes
or iterates it.  Exports hand those columns to the package's one table
writer (:func:`spin_stirling._format._table`), which spells every
field, each value's text from a vectorized ``%.17g`` that writes the
same bytes as Python's.  A JSON export refuses the values JSON cannot
hold, and a JSON read refuses them too.  :func:`read_cells` reads
either format back as columns through ``_format``'s inverse of that
writer, and reads nothing else; this module adds the mode-map rules:
the literals each column may hold, the mode tokens, and the layout's
``absent`` efficiency exactly off heat-engine rows.  Bytes that are
not export text raise :class:`ValidationError`, naming the first bad
row and its line.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Iterator

import numpy as np

from . import _kernels
from .core import Coupling
from .cycle import _ENGINE, _FORBIDDEN, _MODES, OperationMode, _Columnar, _evaluate
from ._format import _Layout, _csv_layout, _deduped, _fields, _padded
from ._format import _parse_17g, _scan, _table, decode, write
from .errors import ValidationError

__all__ = [
    "Branch",
    "GridAnchor",
    "SweepGrid",
    "ModeCell",
    "ModeMap",
    "sweep",
    "trace_zero_work_boundary",
    "export",
    "export_to_path",
    "read_cells",
]

class Branch(enum.Enum):
    """Sign branch of the anchor coupling ``j_b``.

    The two branches are physically distinct maps (the same substance
    cannot realize both signs at once), so the branch is an explicit
    grid field instead of being smuggled into signed ratios.
    """

    B_POSITIVE = "b-positive"
    B_NEGATIVE = "b-negative"

    @classmethod
    def from_token(cls, token: str) -> "Branch":
        for branch in cls:
            if branch.value == token:
                return branch
        raise ValidationError(f"unknown branch token {token!r}")


@dataclasses.dataclass(frozen=True)
class GridAnchor:
    """Absolute scales behind a ratio grid: ``j_b`` and ``t_cold``."""

    j_b: Coupling
    t_cold: float

    def __post_init__(self) -> None:
        if not (
            isinstance(self.t_cold, (int, float))
            and math.isfinite(self.t_cold)
            and self.t_cold > 0.0
        ):
            raise ValidationError(
                f"anchor t_cold must be finite and positive, got {self.t_cold!r}"
            )
        if self.j_b.j_over_kb == 0.0:
            raise ValidationError("anchor j_b must be nonzero to define ratios")


@dataclasses.dataclass(frozen=True)
class SweepGrid:
    """Rectangular grid over (coupling ratio, temperature ratio).

    Axes must be strictly increasing; every temperature ratio must
    exceed 1 (the degenerate equal-temperature line is approached, never
    included).  The anchor's ``j_b`` sign must match the declared
    branch.
    """

    coupling_ratio_axis: tuple[float, ...]
    temp_ratio_axis: tuple[float, ...]
    anchor: GridAnchor
    branch: Branch

    def __post_init__(self) -> None:
        for name in ("coupling_ratio_axis", "temp_ratio_axis"):
            axis = getattr(self, name)
            if len(axis) == 0:
                raise ValidationError(f"{name} must be non-empty")
            if not all(math.isfinite(v) for v in axis):
                raise ValidationError(f"{name} must contain only finite values")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValidationError(f"{name} must be strictly increasing")
        if min(self.temp_ratio_axis) <= 1.0:
            raise ValidationError(
                "temp_ratio_axis values must all exceed 1, got minimum "
                f"{min(self.temp_ratio_axis)!r}"
            )
        j_b = self.anchor.j_b.j_over_kb
        sign = self.branch.value.removeprefix("b-")
        if not (j_b < 0.0 if sign == "negative" else j_b > 0.0):
            raise ValidationError(
                f"branch b-{sign} requires a {sign} anchor j_b, got {j_b!r}"
            )

    @classmethod
    def default(
        cls, branch: Branch = Branch.B_NEGATIVE, resolution: int = 400
    ) -> "SweepGrid":
        """The stock map: ratios in [-3, 3] by (1, 3], anchored at
        |j_b|/k_B = 32 K and t_cold = 20 K.

        The anchor values match the experimentally fitted ambient
        configuration of a hydroxo-bridged Cu(II) dimer; the axis
        endpoints are a documented choice covering the experimentally
        plausible window, not a physical constraint.
        """
        if not (isinstance(resolution, int) and resolution >= 2):
            raise ValidationError(
                f"resolution must be an integer >= 2, got {resolution!r}"
            )
        sign = -1.0 if branch is Branch.B_NEGATIVE else 1.0
        ratio_axis = tuple(np.linspace(-3.0, 3.0, resolution).tolist())
        temp_axis = tuple(np.linspace(1.005, 3.0, resolution).tolist())
        return cls(
            coupling_ratio_axis=ratio_axis,
            temp_ratio_axis=temp_axis,
            anchor=GridAnchor(j_b=Coupling(sign * 32.0), t_cold=20.0),
            branch=branch,
        )


@dataclasses.dataclass(frozen=True)
class ModeCell:
    """One evaluated grid cell.

    ``eta_over_carnot`` is present exactly when the cell operates as a
    heat engine, in which case it lies in the open interval (0, 1).
    Flagged (out-of-cap) cells carry NaN energies and mode FORBIDDEN.
    """

    coupling_ratio: float
    temp_ratio: float
    mode: OperationMode
    work: float
    q_in: float
    q_out: float
    eta_over_carnot: float | None = None

    def __post_init__(self) -> None:
        if self.mode is OperationMode.HEAT_ENGINE:
            eta_ratio = self.eta_over_carnot
            if eta_ratio is None or not 0.0 < eta_ratio < 1.0:
                raise ValidationError(
                    "heat-engine cells require eta_over_carnot in (0, 1), "
                    f"got {eta_ratio!r}"
                )
        elif self.eta_over_carnot is not None:
            raise ValidationError(
                f"eta_over_carnot must be absent for mode {self.mode.token!r}"
            )


#: The columns of an export, in order: the fields of :class:`ModeCell`.
_EXPORT_COLUMNS = tuple(field.name for field in dataclasses.fields(ModeCell))


@dataclasses.dataclass(frozen=True, eq=False)
class ModeMap(_Columnar):
    """Evaluated grid cells as flat numpy columns, one entry per cell.

    A read-only sequence of :class:`ModeCell` on the package's columnar
    base: cells are built on demand, each passing :class:`ModeCell`
    validation.  ``mode_code`` indexes ``tuple(OperationMode)``, and
    ``eta_over_carnot`` lies in (0, 1) on every heat-engine cell and is
    NaN on every other.  A map equals another map or a list when their
    cell lists are equal, so NaN energies compare unequal.  The columns
    are read-only views.
    """

    coupling_ratio: np.ndarray
    temp_ratio: np.ndarray
    mode_code: np.ndarray
    work: np.ndarray
    q_in: np.ndarray
    q_out: np.ndarray
    eta_over_carnot: np.ndarray

    _code, _eta, _row = "mode_code", "eta_over_carnot", "cell"

    _record = ModeCell


def sweep(grid: SweepGrid) -> ModeMap:
    """Evaluate every grid cell and classify its operating mode.

    Returns a :class:`ModeMap`: a sequence of :class:`ModeCell` backed by
    numpy columns.  Cells are in row-major order with the temperature
    ratio as the outer index: cell ``k`` has ``temp_ratio_axis[k // n_r]``
    and ``coupling_ratio_axis[k % n_r]``.  Two sweeps of the same grid
    are bit-identical.
    """
    ratios = np.asarray(grid.coupling_ratio_axis, dtype=float)
    temp_ratios = np.asarray(grid.temp_ratio_axis, dtype=float)[:, np.newaxis]
    j_b = grid.anchor.j_b.j_over_kb
    t_cold = grid.anchor.t_cold

    j_a = ratios * j_b
    flagged = np.abs(j_a) > grid.anchor.j_b.cap
    eta_carnot = 1.0 - 1.0 / temp_ratios
    # Flagged couplings enter as NaN: their energies come out NaN, which
    # the evaluator's checks pass over, and their mode is overridden.
    cells = _evaluate(
        np.where(flagged, np.nan, j_a), j_b, temp_ratios * t_cold, t_cold, eta_carnot
    )
    return ModeMap(
        coupling_ratio=np.tile(ratios, len(temp_ratios)),
        temp_ratio=np.repeat(temp_ratios, len(ratios)),
        mode_code=np.where(flagged, np.int8(_FORBIDDEN), cells.code).ravel(),
        work=cells.work.ravel(),
        q_in=cells.q_in.ravel(),
        q_out=cells.q_out.ravel(),
        eta_over_carnot=(cells.eta / eta_carnot).ravel(),
    )


#: Relative width to which each zero-work root bracket is narrowed.
ROOT_RTOL = 1e-10
#: Absolute floor on the bracket width, for roots at or near ratio 0.
ROOT_ATOL = 1e-13


def trace_zero_work_boundary(grid: SweepGrid, temp_ratio: float) -> list[float]:
    """Coupling-ratio roots of the net work along one grid row.

    Scans the grid's coupling-ratio axis at the given temperature ratio,
    brackets every sign change of the net work, and narrows each bracket
    by bisection to a relative width of 1e-10 (with a small absolute
    floor so roots at ratio zero terminate).  Axis points where the work
    is exactly zero in floating point are reported as roots directly.

    Returns the ascending list of roots; empty when the work does not
    change sign anywhere on the axis.
    """
    if not (
        isinstance(temp_ratio, (int, float))
        and math.isfinite(temp_ratio)
        and temp_ratio > 1.0
    ):
        raise ValidationError(
            f"temp_ratio must be a finite number above 1, got {temp_ratio!r}"
        )
    j_b = grid.anchor.j_b.j_over_kb
    t_cold = grid.anchor.t_cold
    t_hot = temp_ratio * t_cold

    def work_at(ratio: float) -> float:
        return float(_kernels.net_work(ratio * j_b, j_b, t_hot, t_cold))

    axis = grid.coupling_ratio_axis
    # One array call, elementwise the same arithmetic as work_at.
    values = _kernels.net_work(np.asarray(axis) * j_b, j_b, t_hot, t_cold).tolist()

    roots = [r for r, w in zip(axis, values) if w == 0.0]
    for (a, wa), (b, wb) in zip(zip(axis, values), zip(axis[1:], values[1:])):
        if wa == 0.0 or wb == 0.0 or (wa > 0.0) == (wb > 0.0):
            continue
        while (b - a) > max(ROOT_RTOL * max(abs(a), abs(b)), ROOT_ATOL):
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:  # interval no longer splittable
                break
            wm = work_at(mid)
            if wm == 0.0:
                a = b = mid
                break
            if (wm > 0.0) == (wa > 0.0):
                a, wa = mid, wm
            else:
                b, wb = mid, wm
        roots.append(0.5 * (a + b))

    roots.sort()
    deduped: list[float] = []
    for root in roots:
        if not deduped or abs(root - deduped[-1]) > 1e-12 * max(1.0, abs(root)):
            deduped.append(root)
    return deduped


_LAYOUTS = {
    "csv": _csv_layout(_EXPORT_COLUMNS, [mode.token for mode in _MODES]),
    "json": _Layout(
        head=b"[\n",
        row=("{" + ", ".join(f'"{name}": %s' for name in _EXPORT_COLUMNS) + "}").encode(),
        separator=b",\n", tail=b"\n]\n", nan=b"null", absent=b"null",
        tokens=[json.dumps(mode.token).encode() for mode in _MODES],
    ),
}

def _check_format(format: str) -> None:
    if not isinstance(format, str) or format not in _LAYOUTS:
        raise ValidationError(
            f"unknown export format {format!r}, use 'csv' or 'json'"
        )


def _json_values(cells: ModeMap) -> ModeMap:
    """``cells``, if JSON holds their values: no infinity in any column and
    no NaN (null) in a ratio column; else a :class:`ValidationError`
    naming the column and the cell."""
    for name in _EXPORT_COLUMNS:
        if name == "mode":
            continue
        column = getattr(cells, name)
        ratio = name in ("coupling_ratio", "temp_ratio")
        bad = ~np.isfinite(column) if ratio else np.isinf(column)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(
                f"a JSON export cannot hold {name} {float(column[k])!r} at cell {k}"
            )
    return cells


def _as_map(cells: ModeMap, format: str) -> ModeMap:
    """Check an export request: a non-empty :class:`ModeMap` and a known
    format; a JSON export refuses what :func:`_json_values` refuses."""
    if not isinstance(cells, ModeMap):
        raise ValidationError(f"export requires a ModeMap, got {type(cells).__name__}")
    if not len(cells):
        raise ValidationError("export requires a non-empty cell list")
    _check_format(format)
    return _json_values(cells) if format == "json" else cells


def _text_blocks(cells: ModeMap, format: str) -> Iterator[bytes]:
    """The export bytes of ``cells``, a block of rows at a time: the map's
    columns, handed to :func:`spin_stirling._format._table`.  Each ratio
    column holds few distinct values, so it is deduped once per export
    (:func:`spin_stirling._format._deduped`).  The efficiency is written
    as the layout's ``absent`` where it is NaN: by the map's construction
    check, exactly on the cells outside heat-engine mode.
    """
    layout = _LAYOUTS[format]
    ratios = [_deduped(layout, r) for r in (cells.coupling_ratio, cells.temp_ratio)]
    return _table(layout, [
        *ratios, cells.mode_code, cells.work, cells.q_in, cells.q_out, cells.eta_over_carnot,
    ], absent=6)


def export(cells: ModeMap, format: str = "csv") -> bytes:
    """Serialize a :class:`ModeMap` to CSV or JSON bytes.

    Column order is fixed (coupling_ratio, temp_ratio, mode, work, q_in,
    q_out, eta_over_carnot); floats carry 17 significant digits so a
    parse reproduces the doubles bit-exactly; the mode is its lowercase
    token.  An absent efficiency ratio is an empty CSV field or a JSON
    null; NaN energies of flagged cells become JSON nulls because JSON
    has no NaN literal.  A JSON export of an infinity, or of a NaN ratio,
    raises :class:`ValidationError` naming the cell and the column; CSV
    writes them as ``inf`` and ``nan``.  Anything but a non-empty map,
    a plain list of :class:`ModeCell` included, raises
    :class:`ValidationError`, as does an unknown format.
    """
    return b"".join(_text_blocks(_as_map(cells, format), format))


def export_to_path(cells: ModeMap, path: str, format: str = "csv") -> None:
    """Write :func:`export`'s bytes to ``path``.

    Rows are formatted and written a block at a time, so the text held
    in memory does not grow with the number of cells.  OS errors keep
    the path context, and cells that :func:`export` refuses raise before
    the file is opened.
    """
    write(path, _text_blocks(_as_map(cells, format), format), f"{format} export")


#: Per format, the literals an export writes for numbers: text, value,
#: and the first numeric column it may stand in (the ratios are 0 and 1,
#: the efficiency 5).  JSON has null for a NaN energy or efficiency; CSV
#: has ``%.17g``'s nan and infinities, and "" for an absent efficiency.
_LITERALS = {
    "csv": [(b"nan", math.nan, 0), (b"inf", math.inf, 0), (b"-inf", -math.inf, 0),
            (b"", math.nan, 5)],
    "json": [(b"null", math.nan, 2)],
}


def _scanned_columns(data: bytes, format: str) -> tuple[np.ndarray, ...] | None:
    """The columns of ``data`` if it is byte for byte an export in
    ``format``, else None: fields where :func:`_scan` finds them, each an
    export number (read by :func:`_parse_17g`) or one of the format's
    :data:`_LITERALS`, and the layout's mode tokens.  The efficiency
    field holds the layout's ``absent`` literal exactly on the rows
    outside heat-engine mode."""
    layout = _LAYOUTS[format]
    scan = _scan(data, layout)
    if scan is None:
        return None
    buf, starts, lengths = scan
    rows = len(starts)
    mode = _EXPORT_COLUMNS.index("mode")
    numeric = [k for k in range(len(_EXPORT_COLUMNS)) if k != mode]
    numbers = _fields(buf, starts[:, numeric].T, lengths[:, numeric].T)
    words = numbers.view(np.uint64)
    absent = np.all(words[-rows:] == _padded([layout.absent]).view(np.uint64), axis=1)
    # A literal is found by its field's first 8 bytes, and parses as 0.
    first_words = words[:, 0]
    literals = []
    for text, value, first in _LITERALS[format]:
        found = first_words == int.from_bytes(text, "little")
        if found[: first * rows].any():
            return None
        first_words[found] = ord("0")
        literals.append((found, value))
    values = _parse_17g(numbers)
    if values is None:
        return None
    for found, value in literals:
        values[found] = value

    # A mode is looked up by its first 8 bytes, then compared whole.
    tokens = _padded(layout.tokens).view(np.uint64)
    found = _fields(buf, starts[:, mode], lengths[:, mode]).view(np.uint64)
    order = np.argsort(tokens[:, 0])
    slots = np.searchsorted(tokens[order, 0], found[:, 0]).clip(max=len(order) - 1)
    codes = order[slots].astype(np.int8)
    if not np.array_equal(found, tokens[codes]):
        return None
    if not np.array_equal(absent, codes != _ENGINE):
        return None
    ratio, temp_ratio, work, q_in, q_out, eta = values.reshape(len(numeric), rows)
    return ratio, temp_ratio, codes, work, q_in, q_out, eta


def _error(data: bytes, format: str) -> ValidationError:
    """The error for ``data`` that :func:`_scanned_columns` refuses,
    naming the first row it refuses.  Line k > 0 is row k, its separator
    included; a run of rows is scanned as the layout's head, the rows
    without their last separator and the layout's tail, so bisection
    finds the row.  Each run starts at the last row known to scan, so
    the separator before the run is checked too."""
    decode(data, ValidationError, "export")
    layout = _LAYOUTS[format]
    if not data.startswith(layout.head):
        return ValidationError(
            f"{format.upper()} header does not match the export contract"
        )
    lines = data.split(b"\n")
    ends = np.cumsum([len(line) + 1 for line in lines])
    last = layout.separator.removesuffix(b"\n")

    def scans(row_lines: bytes) -> tuple[np.ndarray, ...] | None:
        rows = row_lines.removesuffix(b"\n").removesuffix(last)
        return _scanned_columns(layout.head + rows + layout.tail, format)

    good, bad = 0, len(lines) - 1 - data.endswith(b"\n")
    if not bad:
        return ValidationError(f"{format.upper()} export has no rows")
    while bad - good > 1:  # the scan accepts the rows up to good, not to bad
        mid = (good + bad) // 2
        if scans(data[ends[max(good, 1) - 1] : ends[mid]]) is None:
            bad = mid
        else:
            good = mid
    row = lines[bad].removesuffix(last)
    absent = None
    if last and data[ends[bad - 1] - 1 - len(last) :] == last + layout.tail:
        bad -= 1  # the last row holds a separator in front of the tail
    elif scans(row) is None:
        # A row that scans with an absent efficiency holds one off engine.
        *_, before, after = layout.row.split(b"%s")  # around the efficiency
        k = row.rfind(before)
        absent = None if k < 0 else scans(row[: k + len(before)] + layout.absent + after)
    elif bad > 1 and scans(data[ends[bad - 2] : ends[bad]]) is None:
        # The row scans alone but not after the line before it, which
        # lacks its separator.
        bad -= 1
    where = f"export row at line {bad + 1}: {lines[bad].decode()!r}"
    if absent is None:
        return ValidationError(f"malformed {where}")
    mode = f"mode {_MODES[absent[2][0]].token!r}"
    return ValidationError(f"eta_over_carnot must be absent for {mode} in {where}")


def read_cells(data: bytes, format: str = "csv") -> ModeMap:
    """Parse bytes produced by :func:`export` back into a :class:`ModeMap`.

    Exists mainly so the serialization contract (bit-exact roundtrip)
    is testable and so downstream tools can re-ingest exports.  Both
    formats are read column-wise by one layout scan, and only export
    text reads: every byte must stand where :func:`export` puts it, a
    number must be a finite JSON number of at most 24 bytes (read as
    the bits ``float()`` gives) or a literal the export writes there
    (CSV ``nan``, ``inf`` or ``-inf``; JSON ``null`` in the energies and
    the efficiency), and the efficiency must be absent (an empty CSV
    field, a JSON ``null``) exactly on the rows outside heat-engine
    mode.

    Raises :class:`ValidationError` for anything else: bytes that are not
    UTF-8, naming the byte offset; a head that is not the format's
    header; no rows; else the first row that does not scan, named with
    its line, and said to hold an efficiency that must be absent when it
    would scan without one.  So valid JSON that :func:`export` would not
    write (keys reordered or repeated, other whitespace, escaped tokens,
    longer numbers) raises.  An unknown format raises before the bytes
    are read.
    """
    _check_format(format)
    columns = _scanned_columns(data, format)
    if columns is None:
        raise _error(data, format)
    return ModeMap(*columns)
