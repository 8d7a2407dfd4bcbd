"""Release acceptance gate.

Each test evaluates one numbered criterion and prints a single PASS or
FAIL line straight to the real stdout, bypassing pytest capture, so the
gate summary survives in plain logs.  Three criteria (6, 7, and 9)
encode externally supplied magnitude and shape expectations that the
exact thermodynamics implemented here does not reproduce; they are kept
as stated and are expected to fail; ``docs/acceptance_gaps.md`` explains
the observed values, and ``scripts/acceptance_gaps.py`` regenerates them.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spin_stirling import _kernels
from spin_stirling.constants import KB_EV_PER_K
from spin_stirling.core import (
    Coupling,
    ThermalPoint,
    dimensionless_susceptibility,
    entropy,
    gibbs_oracle,
    internal_energy,
)
from spin_stirling.cycle import (
    CycleSpec,
    OperationMode,
    StrokeLedger,
    classify_mode,
    total_work,
)
from spin_stirling.magnetometry import (
    FixG,
    FreeG,
    SusceptibilityDataset,
    bleaney_bowers_chi,
    bleaney_bowers_jacobian,
    fit_bleaney_bowers,
)
from spin_stirling.phasemap import SweepGrid, sweep, trace_zero_work_boundary

ENGINE_J_A = -42.0
ENGINE_J_B = -32.0
ENGINE_T_C = 20.0


def _gate(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(
        f"[criterion {number:02d}] {name}: {verdict} ({detail})",
        file=sys.__stdout__,
        flush=True,
    )


def _random_cycles(seed=20230823, count=10_000):
    # Couplings in [-200, 200] excluding zero, both baths in [5, 400],
    # temperature ratio in (1, 10]; rejection keeps the hot bath in range.
    rng = np.random.default_rng(seed)
    j_a = np.empty(0)
    j_b = np.empty(0)
    t_h = np.empty(0)
    t_c = np.empty(0)
    while t_c.size < count:
        ja = rng.uniform(-200.0, 200.0, size=4 * count)
        jb = rng.uniform(-200.0, 200.0, size=4 * count)
        tc = rng.uniform(5.0, 400.0, size=4 * count)
        th = tc * rng.uniform(1.0 + 1e-9, 10.0, size=4 * count)
        keep = (th <= 400.0) & (ja != 0.0) & (jb != 0.0) & (ja != jb)
        j_a = np.concatenate([j_a, ja[keep]])
        j_b = np.concatenate([j_b, jb[keep]])
        t_h = np.concatenate([t_h, th[keep]])
        t_c = np.concatenate([t_c, tc[keep]])
    sl = slice(0, count)
    return j_a[sl], j_b[sl], t_h[sl], t_c[sl]


def _operand_scale(j_a, j_b, t_h, t_c):
    # Summed magnitude of the state-function terms whose differences form
    # the stroke heats; the honest yardstick for floating-point closure.
    return 2.0 * np.log(4.0) * (t_h + t_c) + 1.5 * (np.abs(j_a) + np.abs(j_b))


#: A fixed symmetric 4x4 matrix for the calibration loop of criterion 1.
CALIBRATION_MATRIX = np.array(
    [
        [1.0, 0.5, 0.0, 0.0],
        [0.5, 2.0, 0.5, 0.0],
        [0.0, 0.5, 3.0, 0.5],
        [0.0, 0.0, 0.5, 4.0],
    ]
)

#: Criterion 1's bound on the oracle loop's time over the calibration
#: loop's.  In 20 full-suite runs on a loaded 2-vCPU VM the ratio read
#: 2.97-3.33, and 4.91-5.46 when ``gibbs_oracle`` did its work twice.
ORACLE_CALIBRATION_RATIO = 4.0


def _calibration_seconds(temperatures):
    """Seconds for work of the oracle's kind that uses no package code: a
    4x4 ``eigh`` and a Boltzmann sum per temperature.  Criterion 1 gates
    on the ratio of its own time to this loop's, interleaved with it, so
    the machine's speed and load cancel out."""
    start = time.perf_counter()
    for t in temperatures:
        energies, _ = np.linalg.eigh(CALIBRATION_MATRIX)
        weights = np.exp(-(energies - energies.min()) / t)
        weights /= weights.sum()
        float(-(weights * np.log(weights)).sum())
    return time.perf_counter() - start


def test_criterion_01_oracle_equivalence():
    js = np.linspace(-200.0, 200.0, 100)
    ts = np.linspace(5.0, 400.0, 100)
    worst = 0.0
    elapsed = calibration = 0.0
    for j in js:
        start = time.perf_counter()
        coupling = Coupling(float(j))
        for t in ts:
            pt = ThermalPoint(coupling, float(t))
            res = gibbs_oracle(pt)
            worst = max(
                worst,
                abs(res.populations.p1 - dimensionless_susceptibility(pt)),
                abs(res.populations.p4 - (1.0 - 3.0 * dimensionless_susceptibility(pt))),
                abs(res.entropy - entropy(pt)),
                abs(res.internal_energy - internal_energy(pt)),
            )
        elapsed += time.perf_counter() - start
        calibration += _calibration_seconds(ts.tolist())
    ratio = elapsed / calibration
    ok = worst <= 1e-12 and ratio < ORACLE_CALIBRATION_RATIO
    _gate(
        1,
        "closed forms match the diagonalization oracle",
        ok,
        f"worst abs dev {worst:.3e} on 100x100 grid, {elapsed:.2f} s, "
        f"{ratio:.2f}x the calibration loop",
    )
    assert ok, f"worst deviation {worst:.3e}, {ratio:.2f}x the calibration loop"


def test_criterion_02_first_law_closure():
    j_a, j_b, t_h, t_c = _random_cycles()
    start = time.perf_counter()
    q_ab, q_bc, q_cd, q_da = _kernels.stroke_heats(j_a, j_b, t_h, t_c)
    work = _kernels.net_work(j_a, j_b, t_h, t_c)
    elapsed = time.perf_counter() - start
    closure = np.abs(work - (q_ab + q_bc + q_cd + q_da))
    worst = float(np.max(closure / _operand_scale(j_a, j_b, t_h, t_c)))
    ok = worst <= 1e-10 and elapsed < 1.0
    _gate(
        2,
        "independent work equals the stroke-heat sum",
        ok,
        f"worst rel closure {worst:.3e} on 10^4 cycles, {elapsed:.3f} s",
    )
    assert ok, f"worst relative closure {worst:.3e}, elapsed {elapsed:.2f} s"


def test_criterion_03_sign_laws_and_no_forbidden_cells():
    j_a, j_b, t_h, t_c = _random_cycles()
    q_ab, q_bc, q_cd, q_da = _kernels.stroke_heats(j_a, j_b, t_h, t_c)
    work = _kernels.net_work(j_a, j_b, t_h, t_c)
    signs_ok = bool(np.all(q_bc < 0.0) and np.all(q_da > 0.0))
    forbidden = 0
    for k in range(j_a.size):
        ledger = StrokeLedger(
            q_ab=float(q_ab[k]),
            q_bc=float(q_bc[k]),
            q_cd=float(q_cd[k]),
            q_da=float(q_da[k]),
            work=float(work[k]),
            q_in=float(q_ab[k] + q_da[k]),
            q_out=float(q_bc[k] + q_cd[k]),
        )
        if classify_mode(ledger) is OperationMode.FORBIDDEN:
            forbidden += 1
    ok = signs_ok and forbidden == 0
    _gate(
        3,
        "isochoric sign laws and second-law classification",
        ok,
        f"q_bc<0 and q_da>0 on 10^4 cycles: {signs_ok}, forbidden cells: {forbidden}",
    )
    assert ok, f"signs_ok={signs_ok}, forbidden={forbidden}"


def _engine_modes_and_efficiencies(t_hot_values):
    from spin_stirling.magnetometry import engine_curve

    points = engine_curve(
        Coupling(ENGINE_J_A), Coupling(ENGINE_J_B), ENGINE_T_C, t_hot_values
    )
    return points


def test_criterion_04_pressure_pair_is_always_a_heat_engine():
    axis = np.arange(21.0, 351.0, 1.0)
    points = _engine_modes_and_efficiencies(axis)
    bad = [p.t_hot for p in points if p.mode is not OperationMode.HEAT_ENGINE]
    ok = not bad
    _gate(
        4,
        "fitted couplings give heat-engine operation at every hot bath",
        ok,
        f"{len(points)} hot-bath samples on (20, 350], deviations: {len(bad)}",
    )
    assert ok, f"non-engine hot baths: {bad[:5]}"


def test_criterion_05_efficiency_tracks_then_stays_below_carnot():
    near = _engine_modes_and_efficiencies([20.02])[0]
    near_ratio = near.eta / near.eta_carnot
    axis = np.arange(25.0, 351.0, 1.0)
    points = _engine_modes_and_efficiencies(axis)
    ratios = np.array([p.eta / p.eta_carnot for p in points])
    monotone = bool(np.all(np.diff(ratios) < 0.0))
    bounded = bool(
        all(p.eta < p.eta_carnot for p in points) and near.eta < near.eta_carnot
    )
    ok = near_ratio >= 0.99 and monotone and bounded
    _gate(
        5,
        "relative efficiency starts near Carnot and decreases",
        ok,
        f"eta/eta_C({20.02} K) = {near_ratio:.4f}, "
        f"monotone on [25, 350]: {monotone}, eta < eta_C: {bounded}",
    )
    assert ok, (
        f"near_ratio={near_ratio:.4f}, monotone={monotone}, bounded={bounded}"
    )


def test_criterion_06_low_temperature_work_magnitude_band():
    axis = np.arange(22.0, 31.0, 1.0)
    works_ev = [
        total_work(
            CycleSpec.from_values(ENGINE_J_A, ENGINE_J_B, float(t_h), ENGINE_T_C)
        )
        * KB_EV_PER_K
        for t_h in axis
    ]
    lo, hi = min(works_ev), max(works_ev)
    ok = all(1e-8 <= w <= 1e-6 for w in works_ev)
    _gate(
        6,
        "work output near onset sits in the 1e-8..1e-6 eV band",
        ok,
        f"observed {lo:.3e}..{hi:.3e} eV for T_h in [22, 30] K",
    )
    assert ok, (
        f"work range {lo:.3e}..{hi:.3e} eV escapes the required "
        f"[1e-8, 1e-6] eV band"
    )


def test_criterion_07_isochoric_heats_cancel_on_the_zero_work_boundary():
    grid = SweepGrid.default()
    temp_ratio = 2.0
    roots = trace_zero_work_boundary(grid, temp_ratio)
    j_b = grid.anchor.j_b.j_over_kb
    t_c = grid.anchor.t_cold
    t_h = temp_ratio * t_c
    report = []
    for root in roots:
        q_ab, q_bc, q_cd, q_da = (
            float(q) for q in _kernels.stroke_heats(root * j_b, j_b, t_h, t_c)
        )
        scale = max(abs(q_ab), abs(q_bc), abs(q_cd), abs(q_da))
        report.append((root, abs(q_bc + q_da) / max(scale, 1e-30)))
    ok = bool(roots) and all(ratio <= 1e-8 for _, ratio in report)
    detail = ", ".join(f"root {r:+.4f}: |q_bc+q_da|/scale = {v:.3e}" for r, v in report)
    _gate(7, "isochoric heats cancel at traced zero-work roots", ok, detail)
    assert ok, detail


def test_criterion_08_fit_roundtrip_and_noise_robustness():
    start = time.perf_counter()
    temps = np.linspace(20.0, 350.0, 67)

    sextet = (-181.4, -42.0, -13.7, 9.6, 47.25, 152.8)
    worst_rel = 0.0
    for j_true in sextet:
        chi = bleaney_bowers_chi(temps, j_true, 2.1)
        data = SusceptibilityDataset(
            points=tuple((float(t), float(c)) for t, c in zip(temps, chi)),
            pressure_gpa=None,
            label=None,
        )
        res = fit_bleaney_bowers(data, FreeG())
        worst_rel = max(worst_rel, abs(res.j_over_kb - j_true) / abs(j_true))

    errors = []
    chi_clean = bleaney_bowers_chi(temps, -32.0, 2.1)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = chi_clean * (1.0 + 0.01 * rng.standard_normal(temps.size))
        data = SusceptibilityDataset(
            points=tuple((float(t), float(c)) for t, c in zip(temps, noisy)),
            pressure_gpa=None,
            label=None,
        )
        res = fit_bleaney_bowers(data, FixG(2.1))
        errors.append(abs(res.j_over_kb + 32.0) / 32.0)
    median_err = statistics.median(errors)
    elapsed = time.perf_counter() - start

    ok = worst_rel <= 1e-6 and median_err <= 0.05 and elapsed < 10.0
    _gate(
        8,
        "fit recovers couplings exactly and degrades gracefully with noise",
        ok,
        f"noiseless worst rel {worst_rel:.3e}, noisy median "
        f"{100.0 * median_err:.2f}%, {elapsed:.2f} s",
    )
    assert ok, (
        f"worst_rel={worst_rel:.3e}, median={median_err:.4f}, "
        f"elapsed={elapsed:.2f} s"
    )


def test_criterion_09_mode_map_topology():
    grid = SweepGrid.default()
    cells = sweep(grid)
    present = {cell.mode for cell in cells}
    operating = {
        OperationMode.HEAT_ENGINE,
        OperationMode.REFRIGERATOR,
        OperationMode.ACCELERATOR,
        OperationMode.HEATER,
    }
    all_modes = operating <= present

    thresholds = {}
    for cell in cells:
        if cell.mode is OperationMode.REFRIGERATOR:
            current = thresholds.get(cell.coupling_ratio, 0.0)
            thresholds[cell.coupling_ratio] = max(current, cell.temp_ratio)
    ratios = sorted(thresholds)
    tr_axis = grid.temp_ratio_axis
    half_step = 0.5 * (tr_axis[1] - tr_axis[0])
    rises = [
        (ratios[k], ratios[k + 1])
        for k in range(len(ratios) - 1)
        if thresholds[ratios[k + 1]] > thresholds[ratios[k]] + half_step
    ]
    monotone = not rises
    ok = all_modes and monotone
    peak = max(thresholds, key=thresholds.get) if thresholds else float("nan")
    _gate(
        9,
        "all four modes present, refrigerator ceiling falls with the ratio",
        ok,
        f"modes {sorted(m.token for m in present)}, fridge columns "
        f"{len(ratios)}, rising-threshold pairs {len(rises)} "
        f"(ceiling peaks at ratio {peak:+.3f})",
    )
    assert ok, (
        f"all_modes={all_modes}, rising threshold pairs={len(rises)}, "
        f"threshold peaks at coupling ratio {peak:+.3f} instead of "
        f"falling monotonically"
    )


def test_criterion_10_fit_jacobian_matches_finite_differences():
    temps = np.linspace(10.0, 350.0, 31)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        j = float(rng.uniform(-200.0, 200.0))
        g = float(rng.uniform(1.7, 2.5))
        jac = bleaney_bowers_jacobian(temps, j, g)
        h_j = 1e-6 * max(1.0, abs(j))
        h_g = 1e-6 * g
        fd_j = (
            bleaney_bowers_chi(temps, j + h_j, g)
            - bleaney_bowers_chi(temps, j - h_j, g)
        ) / (2.0 * h_j)
        fd_g = (
            bleaney_bowers_chi(temps, j, g + h_g)
            - bleaney_bowers_chi(temps, j, g - h_g)
        ) / (2.0 * h_g)
        for column, fd in ((jac[:, 0], fd_j), (jac[:, 1], fd_g)):
            scale = float(np.max(np.abs(column)))
            worst = max(worst, float(np.max(np.abs(column - fd))) / max(scale, 1e-300))
    ok = worst <= 1e-6
    _gate(
        10,
        "analytic fit jacobian agrees with central differences",
        ok,
        f"worst column-relative deviation {worst:.3e} over 20 random points",
    )
    assert ok, f"worst deviation {worst:.3e}"


def test_acceptance_gaps_script_prints_the_values_the_note_quotes():
    # docs/acceptance_gaps.md quotes these lines of the script's output.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "acceptance_gaps.py")],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    for quoted in (
        "observed 7.379e-06..3.324e-05 eV",
        "root -0.7066",
        "|q_bc+q_da|/scale = 0.312",
        "fridge columns 108 (-0.624..+0.985), rising-threshold pairs 40, "
        "ceiling peaks at ratio -0.023 (T_h/T_c = 2.205)",
    ):
        assert quoted in result.stdout
