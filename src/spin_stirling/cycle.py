"""Quantum Stirling cycle bookkeeping for the spin dimer.

The cycle runs between two baths at ``t_hot`` and ``t_cold`` and two
values of the exchange coupling, ``j_a`` and ``j_b``:

    A -> B   isothermal stroke at t_hot, coupling moves j_a -> j_b
    B -> C   isochoric stroke at j_b, bath swaps hot -> cold
    C -> D   isothermal stroke at t_cold, coupling moves j_b -> j_a
    D -> A   isochoric stroke at j_a, bath swaps cold -> hot

All heats are positive when absorbed by the substance and work is
positive when done by it, so the first law over the closed loop reads
``W = q_ab + q_bc + q_cd + q_da`` with no minus signs.  The net work is
also evaluated through an independent closed-form expression in the log
of the susceptibility shape factor; agreement of the two routes is a
package invariant.

Classification into operational modes follows the second-law-allowed
sign patterns of (W, Q_in, Q_out), with a tolerance band around the
all-zero Carnot degeneracy.  Any other sign pattern is reported as
``FORBIDDEN``; no physical operating regime produces one.  The sign of
W counts only above the roundoff floor of the state functions, and the
Carnot band is never narrower than that floor.  A heat-engine sign
pattern whose efficiency escapes the Carnot interval can only be
unresolved roundoff and is classified as an accelerator.

Single cycles, engine curves and mode maps all go through one batched
evaluator, :func:`_evaluate`, so they share these checks and rules.
Engine curves and mode maps hold its results on one columnar base,
:class:`_Columnar`: one column check, index, iteration and equality.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import math
import warnings
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels
from ._format import _BLOCK_ROWS
from .core import Coupling, ThermalPoint
from .errors import CurieRegimeWarning, InvariantViolation, ModeError, ValidationError

__all__ = [
    "CycleSpec",
    "StrokeLedger",
    "OperationMode",
    "heat_isothermal_expansion",
    "heat_isochoric_cooling",
    "heat_isothermal_compression",
    "heat_isochoric_heating",
    "total_work",
    "assemble_ledger",
    "classify_mode",
    "default_classification_tolerance",
    "efficiency",
    "carnot_efficiency",
]

#: Relative first-law closure demanded of every assembled ledger.
FIRST_LAW_RTOL = 1e-10

#: Relative half-width of the Carnot degeneracy band in classify_mode.
MODE_TOLERANCE_RTOL = 1e-12

#: Absolute floor of the classification tolerance, guarding cycles whose
#: energy exchanges all underflow.
MODE_TOLERANCE_FLOOR = 1e-30


def _check_baths(t_hot, t_cold) -> None:
    """Both bath temperatures finite numbers, the cold one positive."""
    for name, value in (("t_hot", t_hot), ("t_cold", t_cold)):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if not t_cold > 0.0:
        raise ValidationError(f"t_cold must be strictly positive, got {t_cold!r}")


@dataclasses.dataclass(frozen=True)
class CycleSpec:
    """One Stirling cycle: two couplings and two bath temperatures.

    Invariants enforced at construction: ``t_hot > t_cold > 0`` strictly
    (the degenerate equal-temperature cycle is analyzed only through
    limits, never as a spec) and ``j_a != j_b`` (a zero-width cycle
    exchanges nothing and is rejected as input error).
    """

    j_a: Coupling
    j_b: Coupling
    t_hot: float
    t_cold: float

    def __post_init__(self) -> None:
        _check_baths(self.t_hot, self.t_cold)
        if not self.t_hot > self.t_cold:
            raise ValidationError(
                f"t_hot must exceed t_cold, got t_hot={self.t_hot!r}, "
                f"t_cold={self.t_cold!r}"
            )
        if self.j_a.j_over_kb == self.j_b.j_over_kb:
            raise ValidationError(
                "zero-width cycle: j_a and j_b must differ, both are "
                f"{self.j_a.j_over_kb!r} K"
            )

    @classmethod
    def check_t_hot_axis(
        cls, j_a: Coupling, j_b: Coupling, t_hot_axis: list[float], t_cold: float
    ) -> None:
        """Raise the error that the spec of the first invalid point of
        ``t_hot_axis`` raises, building only the specs that can fail.

        The first point's spec checks t_cold and the couplings, which
        every point shares; only the t_hot checks of
        :meth:`__post_init__` remain for the other points.
        """
        cls(j_a, j_b, t_hot_axis[0], t_cold)
        for t_hot in t_hot_axis:
            if not (math.isfinite(t_hot) and t_hot > t_cold):
                cls(j_a, j_b, t_hot, t_cold)

    @classmethod
    def from_values(
        cls, j_a: float, j_b: float, t_hot: float, t_cold: float
    ) -> "CycleSpec":
        """Build a spec from bare floats with default coupling caps."""
        return cls(Coupling(j_a), Coupling(j_b), t_hot, t_cold)

    def endpoints(self) -> tuple[ThermalPoint, ThermalPoint, ThermalPoint, ThermalPoint]:
        """The four cycle nodes (A, B, C, D) as thermal points."""
        return (
            ThermalPoint(self.j_a, self.t_hot),
            ThermalPoint(self.j_b, self.t_hot),
            ThermalPoint(self.j_b, self.t_cold),
            ThermalPoint(self.j_a, self.t_cold),
        )


@dataclasses.dataclass(frozen=True)
class StrokeLedger:
    """The four stroke heats, the net work, and the in/out aggregates.

    Everything is in kelvin times k_B.  ``q_in = q_ab + q_da`` and
    ``q_out = q_bc + q_cd`` are stored as signed sums; in engine
    operation ``q_out`` is negative and no absolute value is ever taken.
    """

    q_ab: float
    q_bc: float
    q_cd: float
    q_da: float
    work: float
    q_in: float
    q_out: float


class OperationMode(enum.Enum):
    """Second-law-allowed operating regimes of the cycle."""

    HEAT_ENGINE = "heat_engine"
    REFRIGERATOR = "refrigerator"
    ACCELERATOR = "accelerator"
    HEATER = "heater"
    CARNOT_DEGENERATE = "carnot"
    FORBIDDEN = "forbidden"

    @property
    def token(self) -> str:
        """Lowercase serialization token used by exports and the CLI."""
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "OperationMode":
        for mode in cls:
            if mode.value == token:
                return mode
        raise ValidationError(f"unknown operation-mode token {token!r}")


def heat_isothermal_expansion(spec: CycleSpec) -> float:
    """Heat absorbed on the hot isotherm A -> B,
    ``t_hot [S(j_b, t_hot) - S(j_a, t_hot)]``."""
    return float(
        _kernels.isothermal_heat(
            spec.j_a.j_over_kb, spec.j_b.j_over_kb, spec.t_hot
        )
    )


def heat_isochoric_cooling(spec: CycleSpec) -> float:
    """Heat exchanged on the fixed-coupling stroke B -> C,
    ``U(j_b, t_cold) - U(j_b, t_hot)``; negative for every valid spec."""
    return float(
        _kernels.isochoric_heat(spec.j_b.j_over_kb, spec.t_hot, spec.t_cold)
    )


def heat_isothermal_compression(spec: CycleSpec) -> float:
    """Heat exchanged on the cold isotherm C -> D,
    ``t_cold [S(j_a, t_cold) - S(j_b, t_cold)]``."""
    return float(
        _kernels.isothermal_heat(
            spec.j_b.j_over_kb, spec.j_a.j_over_kb, spec.t_cold
        )
    )


def heat_isochoric_heating(spec: CycleSpec) -> float:
    """Heat absorbed on the fixed-coupling stroke D -> A,
    ``U(j_a, t_hot) - U(j_a, t_cold)``; positive for every valid spec."""
    return float(
        _kernels.isochoric_heat(spec.j_a.j_over_kb, spec.t_cold, spec.t_hot)
    )


def total_work(spec: CycleSpec) -> float:
    """Net work done by the substance over the cycle.

    Uses the closed-form log expression (see
    :func:`spin_stirling._kernels.net_work`) rather than summing stroke
    heats, so it serves as an independent first-law witness.  Positive
    values mean the cycle delivers work.
    """
    return float(
        _kernels.net_work(
            spec.j_a.j_over_kb, spec.j_b.j_over_kb, spec.t_hot, spec.t_cold
        )
    )


def _stroke_scale(q_ab, q_bc, q_cd, q_da):
    return np.maximum(
        np.maximum(np.abs(q_ab), np.abs(q_bc)), np.maximum(np.abs(q_cd), np.abs(q_da))
    )


_FLOOR_T = 32.0 * math.ulp(1.0) * (2.0 * math.log(4.0))
_FLOOR_J = 32.0 * math.ulp(1.0) * 1.5


def _roundoff_floor(j_a, j_b, t_hot, t_cold):
    """Absolute roundoff scale of the stroke-heat arithmetic, elementwise.

    Every stroke heat is a difference of state-function terms bounded by
    ``T ln 4`` (entropy side) or ``3|J|/4`` (energy side).  In a deeply
    gapped cycle the differences are exponentially small while the terms
    stay O(T) and O(|J|), so the achievable absolute accuracy is set by
    the terms, not the results.  Consistency checks must not demand more
    than a modest multiple of machine epsilon times that term magnitude.
    The multiple, 32 ulp(1) = 2**-47, scales the constants rather than the
    sum, which would overflow once t_hot + t_cold passes about 6.5e307 K;
    scaling by a power of two is exact, so the floor is the same bits.
    """
    return _FLOOR_T * (t_hot + t_cold) + _FLOOR_J * (np.abs(j_a) + np.abs(j_b))


def _carnot_band(scale):
    """Default Carnot-band half-width for the largest stroke magnitude."""
    return MODE_TOLERANCE_RTOL * np.maximum(scale, MODE_TOLERANCE_FLOOR)


def default_classification_tolerance(ledger: StrokeLedger) -> float:
    """Carnot-band half-width used by :func:`classify_mode` by default.

    Relative to the largest stroke magnitude with an absolute floor, so
    near-degenerate cycles where every exchange vanishes together are
    mapped to ``CARNOT_DEGENERATE`` instead of acquiring noise-driven
    sign patterns.
    """
    scale = _stroke_scale(ledger.q_ab, ledger.q_bc, ledger.q_cd, ledger.q_da)
    return float(_carnot_band(scale))


#: Mode codes of the batched evaluator index this tuple.
_MODES = tuple(OperationMode)
_ENGINE, _FRIDGE, _ACCEL, _HEATER, _CARNOT, _FORBIDDEN = range(len(_MODES))

#: Mode code by sign pattern, indexed by 4 (W > 0) + 2 (Q_in > 0) + (Q_out > 0):
#: (-, -, -) heater, (-, -, +) refrigerator, (-, +, -) accelerator,
#: (+, +, -) heat engine; every other pattern is forbidden.
_SIGN_TABLE = np.full(8, _FORBIDDEN, dtype=np.int8)
_SIGN_TABLE[[0b000, 0b001, 0b010, 0b110]] = (_HEATER, _FRIDGE, _ACCEL, _ENGINE)


def _classify(work, q_in, q_out, tolerance, floor=0.0):
    """Elementwise mode codes from the sign table and the Carnot band.

    A work no larger than ``floor`` reads as zero; ``tolerance`` must be
    at least ``floor``.
    """
    codes = _SIGN_TABLE[4 * (work > floor) + 2 * (q_in > 0.0) + (q_out > 0.0)]
    carnot = (
        (np.abs(work) <= tolerance)
        & (np.abs(q_in) <= tolerance)
        & (np.abs(q_out) <= tolerance)
    )
    return np.where(carnot, np.int8(_CARNOT), codes)


@dataclasses.dataclass(frozen=True, eq=False)
class _Columnar(collections.abc.Sequence):
    """Evaluated cycles as flat numpy columns, one entry per row: the base
    of :class:`~spin_stirling.phasemap.ModeMap` and
    :class:`~spin_stirling.magnetometry.EngineCurve`.

    A subclass declares its columns as fields and names those the check
    reads: the mode codes ``_code``, the efficiency ``_eta`` and the
    Carnot bound ``_carnot`` that divides it (None when ``_eta`` is
    relative already); ``_row`` names a row in errors.  Its ``_record``
    builds a row's record from its values in field order, the mode code
    read as an :class:`OperationMode` and the efficiency None off
    heat-engine rows.

    Construction holds the columns as read-only views, the caller's
    arrays left writable, once every column is flat and shaped like the
    first, the mode codes index ``tuple(OperationMode)`` (kept as int8,
    the rest as float) and the efficiency is NaN exactly off heat-engine
    rows, with its ratio to the Carnot bound in (0, 1) on them: the
    evaluator's own test.  Else it raises :class:`ValidationError`.

    An integer index builds one record from the columns' scalars, a
    slice is an instance over views, and iteration builds records a
    block at a time.  An instance equals one of its type with equal
    columns, the efficiency on heat-engine rows only, so NaN energies
    compare unequal; and a list equal to its records.
    """

    _carnot = None

    def __post_init__(self) -> None:
        names = [field.name for field in dataclasses.fields(self)]
        first = names[0]
        shape = np.shape(getattr(self, first))
        columns = []
        for name in names:
            column = np.asarray(getattr(self, name))
            if column.ndim != 1 or column.shape != shape:
                raise ValidationError(
                    f"{name} must be a flat column shaped like {first} {shape}, "
                    f"got {column.shape}"
                )
            is_code = name == self._code
            if is_code and not (
                np.issubdtype(column.dtype, np.integer)
                and np.all((column >= 0) & (column < len(_MODES)))
            ):
                raise ValidationError(f"{name} entries must index OperationMode")
            column = column.astype(np.int8 if is_code else float, copy=False).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
            columns.append(column)
        object.__setattr__(self, "_columns", tuple(columns))
        # Where a row's values hold its mode code and its efficiency.
        at = names.index(self._code), names.index(self._eta)
        object.__setattr__(self, "_at", at)
        engine = getattr(self, self._code) == _ENGINE
        values = ratio = getattr(self, self._eta)
        name = self._eta
        if self._carnot is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = values / getattr(self, self._carnot)
            name = f"{self._eta} / {self._carnot}"
        bad = engine & ~((ratio > 0.0) & (ratio < 1.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(
                f"heat-engine {self._row}s require {name} in (0, 1), "
                f"got {float(ratio[k])!r} at {self._row} {k}"
            )
        bad = ~engine & ~np.isnan(values)
        if bad.any():
            k = int(np.argmax(bad))
            mode = _MODES[getattr(self, self._code)[k]].token
            raise ValidationError(
                f"{self._eta} must be absent for mode {mode!r}, "
                f"got {float(values[k])!r} at {self._row} {k}"
            )

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index: int | slice):
        columns = self._columns
        if isinstance(index, slice):
            return type(self)(*(column[index] for column in columns))
        k = range(len(columns[0]))[index]
        values = [column.item(k) for column in columns]
        code, eta = self._at
        if values[code] != _ENGINE:
            values[eta] = None
        values[code] = _MODES[values[code]]
        return self._record(*values)

    def __iter__(self) -> Iterator:
        code, eta = self._at
        for start in range(0, len(self), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            values = [column[start:stop].tolist() for column in self._columns]
            codes = values[code]
            values[eta] = [
                e if c == _ENGINE else None for c, e in zip(codes, values[eta])
            ]
            values[code] = [_MODES[c] for c in codes]
            yield from map(self._record, *values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, list):
            return list(self) == other
        if not isinstance(other, type(self)):
            return NotImplemented
        if len(self) != len(other):
            return False
        # The efficiency counts only on engine rows, as in the records.
        engine = getattr(self, self._code) == _ENGINE
        eta = self._at[1]
        return all(
            np.array_equal(mine[engine], theirs[engine])
            if k == eta
            else np.array_equal(mine, theirs)
            for k, (mine, theirs) in enumerate(zip(self._columns, other._columns))
        )


class _Evaluation(NamedTuple):
    """Cycles evaluated by :func:`_evaluate`, one array per quantity."""

    q_ab: np.ndarray
    q_bc: np.ndarray
    q_cd: np.ndarray
    q_da: np.ndarray
    work: np.ndarray
    q_in: np.ndarray
    q_out: np.ndarray
    code: np.ndarray  # int8 index into _MODES
    eta: np.ndarray  # W / Q_in in heat-engine operation, NaN elsewhere

    def rows(self) -> Iterator[tuple[StrokeLedger, OperationMode, float | None]]:
        """Ledger, mode and efficiency (None outside heat-engine
        operation) of every element in flat order."""
        # The first seven fields are StrokeLedger's, in its order.
        for *fields, code, eta in zip(*(column.ravel().tolist() for column in self)):
            yield StrokeLedger(*fields), _MODES[code], eta if code == _ENGINE else None


def _evaluate(j_a, j_b, t_hot, t_cold, eta_carnot=None) -> _Evaluation:
    """Evaluate, check and classify Stirling cycles elementwise.

    The four inputs broadcast against each other; every field of the
    result has the broadcast shape.  The ``work`` field carries the
    independent closed-form value, and the first-law closure against the
    sum of the stroke heats is verified to 1e-10 relative (floored at the
    roundoff scale of the summed state functions, see
    :func:`_roundoff_floor`) together with the isochoric sign laws; a
    failure raises :class:`InvariantViolation`, since the two routes are
    algebraically identical and can only diverge through a bug.
    Comparisons with NaN are false, so NaN inputs (the sweep's cells
    beyond the coupling cap) yield NaN cells that the checks pass over.

    Modes follow the sign table of :func:`classify_mode`, with a net
    work inside the roundoff floor read as zero and the Carnot band
    widened to the floor: when every stroke heat underflows, the
    closed-form work keeps a residue of that order whose sign means
    nothing.  A cycle showing the heat-engine sign pattern whose
    ``eta / eta_carnot`` escapes (0, 1) contradicts the Carnot theorem,
    which holds analytically for every resolvable cycle; it can only
    mean the work is unresolved at this conditioning.  Such a cycle is
    demoted to the (0, +, -) accelerator convention that an exactly
    zero-width stroke produces, and carries no efficiency.

    ``eta_carnot`` defaults to ``1 - t_cold / t_hot``; the sweep passes
    its own ``1 - 1 / temp_ratio`` so that the demotion test and its
    exported relative efficiency are the same quotient.
    """
    q_ab, q_bc, q_cd, q_da = _kernels.stroke_heats(j_a, j_b, t_hot, t_cold)
    work = _kernels.net_work(j_a, j_b, t_hot, t_cold)
    # The stroke formulas broadcast to different shapes (an isochoric
    # heat at fixed j_b does not depend on j_a); equalize them.
    q_ab, q_bc, q_cd, q_da, work = np.broadcast_arrays(q_ab, q_bc, q_cd, q_da, work)
    shape = work.shape
    q_in = q_ab + q_da
    q_out = q_bc + q_cd

    scale = _stroke_scale(q_ab, q_bc, q_cd, q_da)
    floor = _roundoff_floor(j_a, j_b, t_hot, t_cold)
    stroke_sum = q_ab + q_bc + q_cd + q_da
    broken = np.abs(work - stroke_sum) > np.maximum(
        FIRST_LAW_RTOL * np.maximum(scale, np.abs(work)), floor
    )
    if broken.any():
        k = np.unravel_index(np.argmax(broken), shape)
        raise InvariantViolation(
            f"first-law closure violated: independent work {float(work[k])!r} vs "
            f"stroke sum {float(stroke_sum[k])!r}"
        )
    band = _carnot_band(scale)
    sign_slack = np.maximum(band, floor)
    broken = (q_bc > sign_slack) | (q_da < -sign_slack)
    if broken.any():
        k = np.unravel_index(np.argmax(broken), shape)
        raise InvariantViolation(
            f"isochoric sign law violated: q_bc={float(q_bc[k])!r} (expected <= 0), "
            f"q_da={float(q_da[k])!r} (expected >= 0)"
        )

    code = _classify(work, q_in, q_out, sign_slack, floor)
    if eta_carnot is None:
        eta_carnot = 1.0 - np.divide(t_cold, t_hot)
    engine = code == _ENGINE
    # An underflowed q_in or a tiny eta_carnot can make these quotients
    # overflow; the demotion below catches the resulting infinity.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta = np.where(engine, work / q_in, np.nan)
        eta_ratio = eta / eta_carnot
    unresolved = engine & ~((eta_ratio > 0.0) & (eta_ratio < 1.0))
    code = np.where(unresolved, np.int8(_ACCEL), code)
    eta = np.where(unresolved, np.nan, eta)
    return _Evaluation(q_ab, q_bc, q_cd, q_da, work, q_in, q_out, code, eta)


def _evaluate_cycles(j_a: Coupling, j_b: Coupling, t_hot, t_cold) -> _Evaluation:
    """:func:`_evaluate` for cycles that :class:`CycleSpec` has validated.

    Emits one :class:`CurieRegimeWarning` when any cycle endpoint has
    ``T > |J|/k_B``, where the dimer model leaves the exchange-dominated
    regime it is meant to describe.  The warning names the caller of
    this function's caller, so a public function must call this one
    directly.
    """
    j_a, j_b = j_a.j_over_kb, j_b.j_over_kb
    # A valid cycle has t_hot > t_cold, so the hot bath against the
    # weaker coupling decides whether any of its four endpoints is warm.
    if np.any(np.greater(t_hot, np.minimum(np.abs(j_a), np.abs(j_b)))):
        warnings.warn(
            "cycle endpoint enters the Curie paramagnetic regime "
            "(T > |J|/k_B); the dimer description degrades there",
            CurieRegimeWarning,
            stacklevel=3,
        )
    return _evaluate(j_a, j_b, t_hot, t_cold)


def assemble_ledger(spec: CycleSpec) -> StrokeLedger:
    """Evaluate all four strokes and aggregates for one cycle.

    The ledger's ``work`` field carries the independent closed-form
    value; this function verifies the first-law closure against the sum
    of the stroke heats to 1e-10 relative (floored at the roundoff
    scale of the summed state functions, see :func:`_roundoff_floor`)
    and raises :class:`InvariantViolation` on disagreement, since the
    two routes are algebraically identical and can only diverge through
    a bug.

    Emits :class:`CurieRegimeWarning` when any of the four cycle
    endpoints has ``T > |J|/k_B``, where the dimer model leaves the
    exchange-dominated regime it is meant to describe.
    """
    ledger, _, _ = next(
        _evaluate_cycles(spec.j_a, spec.j_b, spec.t_hot, spec.t_cold).rows()
    )
    return ledger


def classify_mode(
    ledger: StrokeLedger, tolerance: float | None = None
) -> OperationMode:
    """Map the sign pattern of (work, q_in, q_out) to an operating mode.

    Patterns, with + meaning strictly positive and - strictly negative:

    ==========  =====  ======  ======
    mode        work   q_in    q_out
    ==========  =====  ======  ======
    heat engine  +      +       -
    refrigerator -      -       +
    accelerator  -      +       -
    heater       -      -       -
    ==========  =====  ======  ======

    When all three magnitudes fall inside the tolerance band the cycle
    sits at a Carnot degeneracy where the four modes coincide, and
    ``CARNOT_DEGENERATE`` is returned.  Any remaining pattern (for
    example positive work with negative absorbed heat) cannot arise from
    the physics and is returned as ``FORBIDDEN``.

    This is the evaluator's sign rule with a roundoff floor of zero,
    because a ledger does not carry the floor of its operands.

    Parameters
    ----------
    ledger:
        Assembled stroke ledger.
    tolerance:
        Non-negative half-width of the degeneracy band in kelvin times
        k_B.  Defaults to :func:`default_classification_tolerance`.
    """
    if tolerance is None:
        tolerance = default_classification_tolerance(ledger)
    elif not (isinstance(tolerance, (int, float)) and tolerance >= 0.0):
        raise ValidationError(f"tolerance must be >= 0, got {tolerance!r}")
    return _MODES[int(_classify(ledger.work, ledger.q_in, ledger.q_out, tolerance))]


def efficiency(spec: CycleSpec) -> float:
    """Heat-engine efficiency ``eta = W / Q_in``.

    Only defined in heat-engine operation; any other classification
    raises :class:`ModeError` because the ratio stops being a
    performance indicator once the work changes sign.  The result lies
    strictly between 0 and the Carnot bound: an engine sign pattern
    whose efficiency escapes that interval is unresolved roundoff, and
    every evaluation path classifies it as an accelerator.
    """
    _, mode, eta = next(
        _evaluate_cycles(spec.j_a, spec.j_b, spec.t_hot, spec.t_cold).rows()
    )
    if eta is None:
        raise ModeError(
            f"efficiency requires heat-engine operation, cycle is {mode.token!r}"
        )
    return eta


def carnot_efficiency(t_hot: float, t_cold: float) -> float:
    """Carnot bound ``1 - t_cold / t_hot``.

    Accepts ``t_hot == t_cold`` (returning exactly 0.0) so limit
    analyses can evaluate the degenerate point, but rejects a hot bath
    colder than the cold one.
    """
    _check_baths(t_hot, t_cold)
    if t_hot < t_cold:
        raise ValidationError(
            f"t_hot must be at least t_cold, got t_hot={t_hot!r} < t_cold={t_cold!r}"
        )
    return 1.0 - t_cold / t_hot
