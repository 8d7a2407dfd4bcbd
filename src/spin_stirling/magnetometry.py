"""Experimental susceptibility ingestion, model fitting, and engine curves.

Variable-temperature molar susceptibility of a dinuclear complex is
described by the singlet-triplet (Bleaney-Bowers) expression

    chi(T; J, g) = 2 C g**2 F(J, T) / T,      C = N_A mu_B**2 / k_B,

with F the dimensionless shape factor from :mod:`spin_stirling.core`.
This module ingests measured (T, chi) series from CSV, fits J (and
optionally g) by a damped Gauss-Newton scheme with an analytic
Jacobian, converts bridging angles to couplings through the empirical
linear magnetostructural correlation, and drives the Stirling cycle
from fitted parameters to produce engine curves against the hot-bath
temperature.

The fitter is deliberately frozen: fixed initialization scan, fixed
damping schedule, fixed convergence thresholds.  Reproducibility down
to the last bit matters more here than shaving iterations, because fit
outputs feed acceptance tests and published-figure reproductions.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Union

import numpy as np

from . import _kernels
from .constants import (
    CURIE_CONSTANT_EMU_K_PER_MOL,
    DEFAULT_COUPLING_CAP_K,
    KB_EV_PER_K,
)
from .core import Coupling
from .cycle import (
    _ENGINE,
    _MODES,
    CycleSpec,
    OperationMode,
    StrokeLedger,
    _Columnar,
    _evaluate_cycles,
)
from ._format import _csv_layout, _padded, _table, _texts, decoding
from .errors import DataFormatError, ValidationError

__all__ = [
    "DEFAULT_G_FACTOR",
    "SusceptibilityDataset",
    "FitResult",
    "FixG",
    "FreeG",
    "GFactorPolicy",
    "BridgingAngle",
    "EngineCurvePoint",
    "EngineCurve",
    "bleaney_bowers_chi",
    "bleaney_bowers_jacobian",
    "ingest_csv",
    "fit_bleaney_bowers",
    "fit_report_json",
    "coupling_from_angle",
    "engine_curve",
    "engine_curve_csv",
]

#: Typical Cu(II) Lande factor, used when the caller does not free g.
DEFAULT_G_FACTOR = 2.1

#: Magnetostructural correlation J/k_B = slope * theta + intercept for
#: hydroxo-bridged Cu(II) dimers (theta in degrees, J/k_B in kelvin).
ANGLE_SLOPE_K_PER_DEG = 106.0
ANGLE_INTERCEPT_K = -10387.0

# Frozen fitter schedule.  Changing any of these changes bit-level fit
# outputs, so treat them as part of the data contract.
FIT_MAX_ITERATIONS = 200
FIT_LAMBDA_INITIAL = 1e-3
FIT_LAMBDA_INCREASE = 10.0
FIT_LAMBDA_DECREASE = 10.0
FIT_GRADIENT_RTOL = 1e-12
FIT_GRADIENT_ATOL = 1e-30
FIT_GRADIENT_COS_TOL = 1e-6
FIT_SCAN_HALF_WIDTH_K = 500.0
FIT_SCAN_POINTS = 2001

# Largest block of the start scan's table, in float64 elements (64 KiB).
# One dense 2001 x N table maps and faults fresh pages on every fit;
# blocks this small stay in cache and reuse the memory just freed.
_SCAN_BLOCK_ELEMENTS = 8192

_CSV_TEMPERATURE_COLUMN = "T_K"
_CSV_CHI_COLUMN = "chi_emu_mol"


@dataclasses.dataclass(frozen=True)
class SusceptibilityDataset:
    """An experimental chi(T) series with provenance metadata.

    ``points`` holds (temperature in K, molar chi in emu/mol) pairs,
    strictly increasing in temperature.  ``pressure_gpa`` is carried as
    metadata only; it never enters the model, but it must be finite (or
    None) because the fit report writes it as a JSON number.
    """

    points: tuple[tuple[float, float], ...]
    pressure_gpa: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.pressure_gpa is not None and not math.isfinite(self.pressure_gpa):
            raise DataFormatError(
                f"pressure_GPa must be finite, got {self.pressure_gpa!r}"
            )
        if len(self.points) < 5:
            raise DataFormatError(
                f"dataset too small: {len(self.points)} points, need at least 5"
            )
        previous_t = 0.0
        for t, chi in self.points:
            if not (math.isfinite(t) and t > 0.0):
                raise DataFormatError(
                    f"temperatures must be finite and positive, got {t!r}"
                )
            if not (math.isfinite(chi) and chi > 0.0):
                raise DataFormatError(
                    f"susceptibilities must be finite and positive, got {chi!r}"
                )
            if t <= previous_t:
                raise DataFormatError(
                    f"temperatures must be strictly increasing, {t!r} K repeats "
                    "or regresses"
                )
            previous_t = t

    @property
    def temperatures(self) -> np.ndarray:
        return np.array([t for t, _ in self.points], dtype=float)

    @property
    def chis(self) -> np.ndarray:
        return np.array([c for _, c in self.points], dtype=float)


@dataclasses.dataclass(frozen=True)
class FixG:
    """Fit policy: hold g fixed at ``value`` and fit J alone."""

    value: float = DEFAULT_G_FACTOR

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValidationError(
                f"fixed g must be finite and positive, got {self.value!r}"
            )


@dataclasses.dataclass(frozen=True)
class FreeG:
    """Fit policy: fit both J and g, starting g from ``init``."""

    init: float = DEFAULT_G_FACTOR

    def __post_init__(self) -> None:
        if not (math.isfinite(self.init) and self.init > 0.0):
            raise ValidationError(
                f"g initializer must be finite and positive, got {self.init!r}"
            )


GFactorPolicy = Union[FixG, FreeG]


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Outcome of one Bleaney-Bowers fit.

    ``covariance_diag`` holds the diagonal of the parameter covariance
    estimate, ordered (J,) for fixed-g fits and (J, g) for free-g fits.
    ``converged`` is False (never an exception) when the damping
    schedule exhausts its iteration budget before the gradient test
    passes.
    """

    j_over_kb: float
    g: float
    residual_rms: float
    covariance_diag: tuple[float, ...]
    converged: bool
    iterations: int


@dataclasses.dataclass(frozen=True)
class BridgingAngle:
    """Metal-oxygen-metal bridging angle in degrees.

    The sanity window (default (80, 120) degrees) rejects angles far
    outside the structural range over which the linear correlation was
    established.
    """

    theta_degrees: float
    window: tuple[float, float] = dataclasses.field(
        default=(80.0, 120.0), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        low, high = self.window
        if not low < high:
            raise ValidationError(f"invalid angle window {self.window!r}")
        if not (
            math.isfinite(self.theta_degrees)
            and low < self.theta_degrees < high
        ):
            raise ValidationError(
                f"bridging angle {self.theta_degrees!r} deg outside the sanity "
                f"window ({low:g}, {high:g})"
            )


@dataclasses.dataclass(frozen=True)
class EngineCurvePoint:
    """One hot-bath temperature of an engine curve.

    ``eta`` is present only in heat-engine operation; other modes carry
    the mode flag and a None efficiency.
    """

    t_hot: float
    ledger: StrokeLedger
    mode: OperationMode
    eta: float | None
    eta_carnot: float


def bleaney_bowers_chi(temperatures, j_over_kb: float, g: float):
    """Model molar susceptibility, vectorized over temperatures."""
    t = np.asarray(temperatures, dtype=float)
    f = _kernels.susceptibility_shape(j_over_kb, t)
    return 2.0 * CURIE_CONSTANT_EMU_K_PER_MOL * g * g * f / t


def bleaney_bowers_jacobian(temperatures, j_over_kb: float, g: float) -> np.ndarray:
    """Analytic Jacobian of the model, shape (N, 2), columns (dJ, dg).

    Uses d F / d J = -F (1 - 3F) / T, with the singlet factor evaluated
    through its own stable expression so the product keeps relative
    accuracy on both wings of the shape factor.
    """
    t = np.asarray(temperatures, dtype=float)
    f = _kernels.susceptibility_shape(j_over_kb, t)
    q = _kernels.singlet_population(j_over_kb, t)
    c2 = 2.0 * CURIE_CONSTANT_EMU_K_PER_MOL
    d_j = -c2 * g * g * f * q / (t * t)
    d_g = 2.0 * c2 * g * f / t
    return np.column_stack((d_j, d_g))


def _as_text_lines(stream) -> list[str]:
    # A text stream decodes as it is read, so the read is guarded too.
    with decoding(DataFormatError, "susceptibility data"):
        text = stream if isinstance(stream, (bytes, str)) else stream.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    return text.splitlines()


def ingest_csv(stream) -> SusceptibilityDataset:
    """Parse a susceptibility CSV into a validated dataset.

    The format is UTF-8 CSV with a header row containing at least the
    columns ``T_K`` and ``chi_emu_mol`` (extra columns are ignored) and
    optional ``#``-prefixed metadata comments of the form
    ``# pressure_GPa: 0.84`` or ``# label: ambient``.  Rows are sorted
    by temperature before validation.

    Raises
    ------
    DataFormatError
        On bytes that are not UTF-8, given as bytes, a binary stream or
        a text stream (message carries the byte offset), a
        malformed row (message carries the 1-based line number),
        duplicate temperatures, a missing required column, a non-finite
        pressure, or fewer than 5 points.  The CLI maps it to exit
        code 4; a ``--config`` file that is not UTF-8 exits with 2.
    """
    lines = _as_text_lines(stream)
    pressure: float | None = None
    label = ""
    header: list[str] | None = None
    t_index = chi_index = -1
    rows: list[tuple[float, float, int]] = []

    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if ":" in comment:
                key, _, value = comment.partition(":")
                key = key.strip()
                value = value.strip()
                if key == "pressure_GPa":
                    try:
                        pressure = float(value)
                    except ValueError as exc:
                        raise DataFormatError(
                            f"line {line_no}: bad pressure_GPa value {value!r}"
                        ) from exc
                elif key == "label":
                    label = value
            continue
        if header is None:
            header = [col.strip() for col in line.split(",")]
            try:
                t_index = header.index(_CSV_TEMPERATURE_COLUMN)
                chi_index = header.index(_CSV_CHI_COLUMN)
            except ValueError as exc:
                raise DataFormatError(
                    f"line {line_no}: header must contain columns "
                    f"'{_CSV_TEMPERATURE_COLUMN}' and '{_CSV_CHI_COLUMN}', "
                    f"got {line!r}"
                ) from exc
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) <= max(t_index, chi_index):
            raise DataFormatError(
                f"line {line_no}: expected at least {max(t_index, chi_index) + 1} "
                f"columns, got {len(parts)}"
            )
        try:
            t_value = float(parts[t_index])
            chi_value = float(parts[chi_index])
        except ValueError as exc:
            raise DataFormatError(
                f"line {line_no}: cannot parse row {line!r}"
            ) from exc
        rows.append((t_value, chi_value, line_no))

    if header is None:
        raise DataFormatError("no header row found; file is empty or all comments")

    rows.sort(key=lambda item: item[0])
    for (t1, _, n1), (t2, _, n2) in zip(rows, rows[1:]):
        if t1 == t2:
            raise DataFormatError(
                f"duplicate temperature {t1!r} K (lines {n1} and {n2})"
            )

    return SusceptibilityDataset(
        points=tuple((t, chi) for t, chi, _ in rows),
        pressure_gpa=pressure,
        label=label,
    )


def _scan_sse(
    couplings: np.ndarray,
    temperatures: np.ndarray,
    chis: np.ndarray,
    policy: GFactorPolicy,
) -> np.ndarray:
    """Sum of squared residuals of the model at each of ``couplings``.

    Under a free-g policy each coupling uses its own closed-form
    least-squares g (the model is linear in g**2).  A coupling whose
    basis underflows to a zero Gram sum predicts zero for every g, so it
    scores the sum of chi**2 rather than the 0/0 of the closed form.
    """
    shape = _kernels.susceptibility_shape(
        couplings[:, np.newaxis], temperatures[np.newaxis, :]
    )
    basis = 2.0 * CURIE_CONSTANT_EMU_K_PER_MOL * shape / temperatures[np.newaxis, :]
    if isinstance(policy, FixG):
        model = policy.value**2 * basis
        return ((model - chis[np.newaxis, :]) ** 2).sum(axis=1)
    cross = (basis * chis[np.newaxis, :]).sum(axis=1)
    gram = (basis * basis).sum(axis=1)
    explained = np.divide(
        cross**2,
        gram,
        out=np.zeros_like(gram),
        where=gram >= np.finfo(float).tiny,
    )
    return (chis**2).sum() - explained


def _scan_initial_coupling(
    temperatures: np.ndarray, chis: np.ndarray, policy: GFactorPolicy
) -> float:
    """Deterministic coarse scan for the starting J.

    Evaluates the sum of squared residuals on a fixed grid of couplings
    and starts from the best.  Under a free-g policy the scan ranks
    couplings by the best fit they could possibly achieve.  The grid is
    evaluated a block of rows at a time, each block at most
    ``_SCAN_BLOCK_ELEMENTS`` elements; every row is still one reduction
    over the whole dataset, so the result does not depend on the block
    size.
    """
    grid = np.linspace(
        -FIT_SCAN_HALF_WIDTH_K, FIT_SCAN_HALF_WIDTH_K, FIT_SCAN_POINTS
    )
    rows = max(1, _SCAN_BLOCK_ELEMENTS // len(temperatures))
    sse = np.concatenate([
        _scan_sse(grid[start:start + rows], temperatures, chis, policy)
        for start in range(0, len(grid), rows)
    ])
    return float(grid[int(np.argmin(sse))])


def fit_bleaney_bowers(
    data: SusceptibilityDataset, policy: GFactorPolicy = FixG()
) -> FitResult:
    """Least-squares fit of the susceptibility model to a dataset.

    Damped Gauss-Newton with Marquardt diagonal scaling and the frozen
    schedule documented in the module constants: damping starts at
    1e-3, multiplies by 10 on a rejected step and divides by 10 on an
    accepted one, for at most 200 linear solves.  The starting coupling
    comes from the deterministic grid scan; the starting g is the
    policy's fixed value or initializer.

    Convergence is a two-part gradient test, passed when either part
    holds: the infinity norm of the cost gradient drops below 1e-12
    times its starting value (catches exact-model fits, where the
    gradient collapses to rounding level), or every component of the
    gradient is below 1e-6 times the corresponding Jacobian column norm
    times the residual norm (the scale-invariant orthogonality test
    that terminates noisy fits once the residual is numerically
    orthogonal to the model tangent).  Running out of iterations yields
    ``converged=False`` with diagnostics rather than an exception.

    Steps that would push |J| beyond the coupling cap or g to zero or
    below are rejected exactly like cost-increasing steps.
    """
    if not isinstance(policy, (FixG, FreeG)):
        raise ValidationError(
            f"policy must be FixG or FreeG, got {type(policy).__name__}"
        )
    temperatures = data.temperatures
    chis = data.chis
    free_g = isinstance(policy, FreeG)

    j = _scan_initial_coupling(temperatures, chis, policy)
    g = policy.init if free_g else policy.value

    def residuals(j_value: float, g_value: float) -> np.ndarray:
        return bleaney_bowers_chi(temperatures, j_value, g_value) - chis

    def jacobian(j_value: float, g_value: float) -> np.ndarray:
        full = bleaney_bowers_jacobian(temperatures, j_value, g_value)
        return full if free_g else full[:, :1]

    r = residuals(j, g)
    sse = float(r @ r)
    jac = jacobian(j, g)
    gradient = jac.T @ r
    gradient_target = FIT_GRADIENT_RTOL * float(
        np.abs(gradient).max()
    ) + FIT_GRADIENT_ATOL

    def _gradient_converged(grad: np.ndarray, jac_now: np.ndarray,
                            r_now: np.ndarray) -> bool:
        if float(np.abs(grad).max()) <= gradient_target:
            return True
        column_norms = np.sqrt((jac_now * jac_now).sum(axis=0))
        residual_norm = math.sqrt(float(r_now @ r_now))
        bounds = FIT_GRADIENT_COS_TOL * column_norms * residual_norm
        return bool(np.all(np.abs(grad) <= bounds + FIT_GRADIENT_ATOL))

    lam = FIT_LAMBDA_INITIAL
    converged = _gradient_converged(gradient, jac, r)
    iterations = 0

    while not converged and iterations < FIT_MAX_ITERATIONS:
        iterations += 1
        gram = jac.T @ jac
        damped = gram + lam * np.diag(np.maximum(np.diag(gram), 1e-30))
        try:
            step = np.linalg.solve(damped, -gradient)
        except np.linalg.LinAlgError:
            lam *= FIT_LAMBDA_INCREASE
            continue

        j_trial = j + float(step[0])
        g_trial = g + float(step[1]) if free_g else g
        acceptable = (
            abs(j_trial) <= DEFAULT_COUPLING_CAP_K
            and g_trial > 0.0
            and math.isfinite(j_trial)
            and math.isfinite(g_trial)
        )
        if acceptable:
            r_trial = residuals(j_trial, g_trial)
            sse_trial = float(r_trial @ r_trial)
            acceptable = math.isfinite(sse_trial) and sse_trial < sse
        if not acceptable:
            lam *= FIT_LAMBDA_INCREASE
            continue

        j, g, r, sse = j_trial, g_trial, r_trial, sse_trial
        jac = jacobian(j, g)
        gradient = jac.T @ r
        lam /= FIT_LAMBDA_DECREASE
        converged = _gradient_converged(gradient, jac, r)

    n_points = len(temperatures)
    n_params = 2 if free_g else 1
    dof = max(n_points - n_params, 1)
    sigma2 = sse / dof
    try:
        covariance = sigma2 * np.linalg.inv(jac.T @ jac)
        covariance_diag = tuple(float(v) for v in np.diag(covariance))
    except np.linalg.LinAlgError:
        covariance_diag = tuple(math.nan for _ in range(n_params))

    return FitResult(
        j_over_kb=j,
        g=g,
        residual_rms=math.sqrt(sse / n_points),
        covariance_diag=covariance_diag,
        converged=converged,
        iterations=iterations,
    )


def fit_report_json(result: FitResult, data: SusceptibilityDataset) -> bytes:
    """Serialize a fit outcome as the wire-format JSON report.

    Field order is fixed: j_over_kb_K, g, residual_rms, converged,
    iterations, pressure_GPa, label.
    """
    report = {
        "j_over_kb_K": result.j_over_kb,
        "g": result.g,
        "residual_rms": result.residual_rms,
        "converged": result.converged,
        "iterations": result.iterations,
        "pressure_GPa": data.pressure_gpa,
        "label": data.label,
    }
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def coupling_from_angle(angle: BridgingAngle) -> Coupling:
    """Coupling from the linear magnetostructural correlation.

    J/k_B = 106 * theta - 10387 with theta in degrees.  Note the zero
    crossing sits at theta = 10387/106, about 97.99 degrees.
    """
    return Coupling(
        ANGLE_SLOPE_K_PER_DEG * angle.theta_degrees + ANGLE_INTERCEPT_K
    )


@dataclasses.dataclass(frozen=True, eq=False)
class EngineCurve(_Columnar):
    """An evaluated engine curve as flat numpy columns, one entry per
    hot-bath temperature.

    A read-only sequence of :class:`EngineCurvePoint` on the columnar base
    of :class:`~spin_stirling.phasemap.ModeMap`: the hot bath, the
    ledger's seven columns, the mode codes, the efficiency ``eta`` (NaN
    outside heat-engine operation, ``eta / eta_carnot`` in (0, 1) inside
    it) and ``eta_carnot``, ``1.0 - t_cold / t_hot`` of each point bit
    for bit.  A curve equals another curve or a list when their point
    lists are equal.  The columns are read-only views.
    """

    t_hot: np.ndarray
    q_ab: np.ndarray
    q_bc: np.ndarray
    q_cd: np.ndarray
    q_da: np.ndarray
    work: np.ndarray
    q_in: np.ndarray
    q_out: np.ndarray
    code: np.ndarray
    eta: np.ndarray
    eta_carnot: np.ndarray

    _code, _eta, _row, _carnot = "code", "eta", "point", "eta_carnot"

    @staticmethod
    def _record(t_hot, *values) -> EngineCurvePoint:
        # The ledger's fields come first, in StrokeLedger's order.
        *ledger, mode, eta, eta_carnot = values
        return EngineCurvePoint(t_hot, StrokeLedger(*ledger), mode, eta, eta_carnot)


def engine_curve(
    j_a: Coupling,
    j_b: Coupling,
    t_cold: float,
    t_hot_axis: Iterable[float],
) -> EngineCurve:
    """Evaluate the cycle across a hot-bath temperature axis.

    Every axis value must exceed ``t_cold``.  The whole axis is
    evaluated in one batched call with the same checks and mode rules as
    :func:`spin_stirling.cycle.assemble_ledger`.  Points outside
    heat-engine operation carry their mode flag and a None efficiency
    instead of a number, so callers never divide by a heat that changed
    sign.
    """
    axis = [float(t) for t in t_hot_axis]
    if not axis:
        raise ValidationError("t_hot_axis must be non-empty")
    CycleSpec.check_t_hot_axis(j_a, j_b, axis, t_cold)
    t_hot = np.array(axis)
    cycles = _evaluate_cycles(j_a, j_b, t_hot, t_cold)
    return EngineCurve(t_hot, *cycles, 1.0 - t_cold / t_hot)


_CURVE = _csv_layout(
    "T_h_K Q_AB_eV Q_BC_eV Q_CD_eV Q_DA_eV W_eV eta eta_carnot mode".split(),
    [mode.token for mode in _MODES],
)


def engine_curve_csv(curve: EngineCurve) -> bytes:
    """Serialize an :class:`EngineCurve` with energies converted to eV.

    Columns: T_h_K, Q_AB_eV, Q_BC_eV, Q_CD_eV, Q_DA_eV, W_eV, eta,
    eta_carnot, mode.  Floats are written from the curve's columns as
    ``%.17g`` by :func:`spin_stirling._format._table`.  The eta field is
    empty exactly on the points outside heat-engine operation.  Anything
    but a non-empty curve, a plain list of :class:`EngineCurvePoint`
    included, raises :class:`ValidationError`.
    """
    if not isinstance(curve, EngineCurve):
        raise ValidationError(
            f"engine_curve_csv requires an EngineCurve, got {type(curve).__name__}"
        )
    if not len(curve):
        raise ValidationError("engine_curve_csv requires a non-empty curve")
    values = np.column_stack(
        (
            curve.t_hot, curve.q_ab, curve.q_bc, curve.q_cd, curve.q_da,
            curve.work, curve.eta, curve.eta_carnot,
        )
    )
    values[:, 1:6] *= KB_EV_PER_K
    nan, absent = _padded([_CURVE.nan, _CURVE.absent])
    tokens = _padded(_CURVE.tokens)

    def fields(start: int, stop: int) -> list[np.ndarray]:
        codes = curve.code[start:stop]
        texts = _texts(values[start:stop].ravel(), nan)
        texts = texts.reshape(stop - start, values.shape[1], -1)
        texts[codes != _ENGINE, 6] = absent
        return [*texts.swapaxes(0, 1), tokens[codes]]

    return b"".join(_table(_CURVE, len(values), fields))
