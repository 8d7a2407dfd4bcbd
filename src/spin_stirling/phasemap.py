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
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math

import numpy as np

from . import _kernels
from .core import Coupling
from .cycle import _ENGINE, _FORBIDDEN, _MODES, OperationMode, _evaluate
from .errors import ValidationError

__all__ = [
    "Branch",
    "GridAnchor",
    "SweepGrid",
    "ModeCell",
    "sweep",
    "trace_zero_work_boundary",
    "export",
    "export_to_path",
    "read_cells",
]

_EXPORT_COLUMNS = (
    "coupling_ratio",
    "temp_ratio",
    "mode",
    "work",
    "q_in",
    "q_out",
    "eta_over_carnot",
)


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
        if self.branch is Branch.B_NEGATIVE and not j_b < 0.0:
            raise ValidationError(
                f"branch b-negative requires a negative anchor j_b, got {j_b!r}"
            )
        if self.branch is Branch.B_POSITIVE and not j_b > 0.0:
            raise ValidationError(
                f"branch b-positive requires a positive anchor j_b, got {j_b!r}"
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


def _evaluate_grid(grid: SweepGrid) -> tuple[np.ndarray, ...]:
    """Vectorized evaluation of every grid cell.

    Returns (work, q_in, q_out, mode codes, eta_over_carnot) with shape
    (len(temp_ratio_axis), len(coupling_ratio_axis)).
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
    codes = np.where(flagged, np.int8(_FORBIDDEN), cells.code)
    return cells.work, cells.q_in, cells.q_out, codes, cells.eta / eta_carnot


def sweep(grid: SweepGrid) -> list[ModeCell]:
    """Evaluate every grid cell and classify its operating mode.

    Cells are returned in row-major order with the temperature ratio as
    the outer index: cell ``k`` has ``temp_ratio_axis[k // n_r]`` and
    ``coupling_ratio_axis[k % n_r]``.  Two sweeps of the same grid are
    bit-identical.
    """
    work, q_in, q_out, codes, eta_ratio = _evaluate_grid(grid)

    cells: list[ModeCell] = []
    for i, temp_ratio in enumerate(grid.temp_ratio_axis):
        for j, coupling_ratio in enumerate(grid.coupling_ratio_axis):
            code = int(codes[i, j])
            cells.append(
                ModeCell(
                    coupling_ratio=coupling_ratio,
                    temp_ratio=temp_ratio,
                    mode=_MODES[code],
                    work=float(work[i, j]),
                    q_in=float(q_in[i, j]),
                    q_out=float(q_out[i, j]),
                    eta_over_carnot=(
                        float(eta_ratio[i, j]) if code == _ENGINE else None
                    ),
                )
            )
    return cells


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
    values = [work_at(r) for r in axis]

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


def _format_float(value: float) -> str:
    """17-significant-digit decimal form, exact under roundtrip."""
    return "%.17g" % value


def _csv_bytes(cells: list[ModeCell]) -> bytes:
    lines = [",".join(_EXPORT_COLUMNS)]
    for cell in cells:
        eta = "" if cell.eta_over_carnot is None else _format_float(cell.eta_over_carnot)
        lines.append(
            ",".join(
                (
                    _format_float(cell.coupling_ratio),
                    _format_float(cell.temp_ratio),
                    cell.mode.token,
                    _format_float(cell.work),
                    _format_float(cell.q_in),
                    _format_float(cell.q_out),
                    eta,
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_number(value: float) -> str:
    if math.isnan(value):
        return "null"
    return _format_float(value)


def _json_bytes(cells: list[ModeCell]) -> bytes:
    rows = []
    for cell in cells:
        eta = (
            "null"
            if cell.eta_over_carnot is None
            else _format_float(cell.eta_over_carnot)
        )
        rows.append(
            "{"
            f'"coupling_ratio": {_json_number(cell.coupling_ratio)}, '
            f'"temp_ratio": {_json_number(cell.temp_ratio)}, '
            f'"mode": {json.dumps(cell.mode.token)}, '
            f'"work": {_json_number(cell.work)}, '
            f'"q_in": {_json_number(cell.q_in)}, '
            f'"q_out": {_json_number(cell.q_out)}, '
            f'"eta_over_carnot": {eta}'
            "}"
        )
    return ("[\n" + ",\n".join(rows) + "\n]\n").encode("utf-8")


def export(cells: list[ModeCell], format: str = "csv") -> bytes:
    """Serialize cells to CSV or JSON bytes.

    Column order is fixed (coupling_ratio, temp_ratio, mode, work, q_in,
    q_out, eta_over_carnot); floats carry 17 significant digits so a
    parse reproduces the doubles bit-exactly; the mode is its lowercase
    token.  An absent efficiency ratio is an empty CSV field or a JSON
    null; NaN energies of flagged cells become JSON nulls because JSON
    has no NaN literal.
    """
    if not cells:
        raise ValidationError("export requires a non-empty cell list")
    if format == "csv":
        return _csv_bytes(cells)
    if format == "json":
        return _json_bytes(cells)
    raise ValidationError(f"unknown export format {format!r}, use 'csv' or 'json'")


def export_to_path(cells: list[ModeCell], path: str, format: str = "csv") -> None:
    """Write an export to ``path``; OS errors keep the path context."""
    payload = export(cells, format=format)
    try:
        with open(path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(
            exc.errno, f"cannot write {format} export: {exc.strerror}", path
        ) from exc


def _cell_from_fields(
    coupling_ratio: float,
    temp_ratio: float,
    mode_token: str,
    work: float,
    q_in: float,
    q_out: float,
    eta_over_carnot: float | None,
) -> ModeCell:
    return ModeCell(
        coupling_ratio=coupling_ratio,
        temp_ratio=temp_ratio,
        mode=OperationMode.from_token(mode_token),
        work=work,
        q_in=q_in,
        q_out=q_out,
        eta_over_carnot=eta_over_carnot,
    )


def read_cells(data: bytes, format: str = "csv") -> list[ModeCell]:
    """Parse bytes produced by :func:`export` back into cells.

    Exists mainly so the serialization contract (bit-exact roundtrip)
    is testable and so downstream tools can re-ingest exports.
    """
    text = data.decode("utf-8")
    cells: list[ModeCell] = []
    if format == "csv":
        lines = [line for line in text.splitlines() if line]
        if not lines or lines[0] != ",".join(_EXPORT_COLUMNS):
            raise ValidationError("CSV header does not match the export contract")
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != len(_EXPORT_COLUMNS):
                raise ValidationError(f"malformed export row: {line!r}")
            cells.append(
                _cell_from_fields(
                    float(parts[0]),
                    float(parts[1]),
                    parts[2],
                    float(parts[3]),
                    float(parts[4]),
                    float(parts[5]),
                    float(parts[6]) if parts[6] != "" else None,
                )
            )
        return cells
    if format == "json":
        def _num(value: float | None) -> float:
            return math.nan if value is None else float(value)

        for row in json.loads(text):
            cells.append(
                _cell_from_fields(
                    _num(row["coupling_ratio"]),
                    _num(row["temp_ratio"]),
                    row["mode"],
                    _num(row["work"]),
                    _num(row["q_in"]),
                    _num(row["q_out"]),
                    (
                        None
                        if row["eta_over_carnot"] is None
                        or row["mode"] != OperationMode.HEAT_ENGINE.value
                        else float(row["eta_over_carnot"])
                    ),
                )
            )
        return cells
    raise ValidationError(f"unknown export format {format!r}, use 'csv' or 'json'")
