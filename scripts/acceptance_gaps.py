"""Regenerate the numbers behind the three expected acceptance failures.

    PYTHONPATH=src python scripts/acceptance_gaps.py

Criteria 6, 7 and 9 of ``tests/test_acceptance.py`` fail as written.
This script recomputes what each of them observes, the same way the
test does, next to the quantities from the dimer spectrum (triplet at
J/4, singlet at -3J/4) that explain the observation.
``docs/acceptance_gaps.md`` discusses the output.
"""

from __future__ import annotations

import math

import numpy as np

from spin_stirling import _kernels
from spin_stirling.constants import KB_EV_PER_K
from spin_stirling.cycle import OperationMode
from spin_stirling.phasemap import (
    SweepGrid,
    sweep,
    trace_zero_work_boundary,
)

# The fitted pressure pair and cold bath of criteria 4 to 6.
J_A, J_B, T_C = -42.0, -32.0, 20.0


def criterion_06() -> None:
    print("criterion 06: work near onset, J_A = -42 K, J_B = -32 K, T_c = 20 K")
    print("  T_h/K    W/eV        dT*dS/eV    W/(k_B dT)")
    works = []
    for t_h in np.arange(22.0, 31.0, 1.0).tolist():
        work = float(_kernels.net_work(J_A, J_B, t_h, T_C)) * KB_EV_PER_K
        # First order in dT = T_h - T_c: W ~ dT [S(J_B) - S(J_A)] at T_c.
        d_s = float(
            _kernels.entropy_dimensionless(J_B, T_C)
            - _kernels.entropy_dimensionless(J_A, T_C)
        )
        estimate = (t_h - T_C) * d_s * KB_EV_PER_K
        works.append(work)
        per_kelvin = work / KB_EV_PER_K / (t_h - T_C)
        print(f"  {t_h:5.1f}  {work:10.3e}  {estimate:10.3e}  {per_kelvin:.4f}")
    print(f"  observed {min(works):.3e}..{max(works):.3e} eV, required 1e-8..1e-6 eV")
    # Size of the isothermal entropy change 1e-6 eV would allow at dT = 2 K.
    allowed = 1e-6 / KB_EV_PER_K / 2.0
    print(
        f"  1e-6 eV at dT = 2 K needs S(J_B) - S(J_A) <= {allowed:.2e}, "
        f"observed {d_s:.4f}"
    )


def criterion_07() -> None:
    grid = SweepGrid.default()
    j_b, t_c = grid.anchor.j_b.j_over_kb, grid.anchor.t_cold
    t_h = 2.0 * t_c
    print(f"criterion 07: zero-work roots, default grid, J_B = {j_b} K, T_h/T_c = 2")
    for root in trace_zero_work_boundary(grid, 2.0):
        q_ab, q_bc, q_cd, q_da = (
            float(q) for q in _kernels.stroke_heats(root * j_b, j_b, t_h, t_c)
        )
        scale = max(abs(q_ab), abs(q_bc), abs(q_cd), abs(q_da))
        print(
            f"  root {root:+.4f} (J_A = {root * j_b:+.3f} K): q_bc = {q_bc:+.4f} K, "
            f"q_da = {q_da:+.4f} K, |q_bc+q_da|/scale = "
            f"{abs(q_bc + q_da) / max(scale, 1e-30):.3f}"
        )
    # ln Z = ln 4 + 3 x^2/32 + x^3/64 + O(x^4), x = J/T: the even term puts
    # the root at J_A = -J_B, where the isochoric heats cancel; the odd term
    # (threefold triplet against one singlet) moves both apart.
    for t in (t_c, t_h):
        x = abs(j_b) / t
        print(
            f"  at T = {t:g} K, |J_B|/T = {x:.2f}: "
            f"quadratic term {3 * x * x / 32:.4f}, cubic term {x ** 3 / 64:.4f}"
        )
    u = [float(_kernels.isochoric_heat(j, t_c, t_h)) for j in (j_b, -j_b)]
    print(
        f"  heat absorbed from T_c to T_h at J = {j_b:+g} K: {u[0]:.4f} K, "
        f"at J = {-j_b:+g} K: {u[1]:.4f} K"
    )


def criterion_09() -> None:
    grid = SweepGrid.default()
    cells = sweep(grid)
    fridge = cells.mode_code == list(OperationMode).index(OperationMode.REFRIGERATOR)
    thresholds: dict[float, float] = {}
    for ratio, temp_ratio in zip(
        cells.coupling_ratio[fridge].tolist(), cells.temp_ratio[fridge].tolist()
    ):
        thresholds[ratio] = max(thresholds.get(ratio, 0.0), temp_ratio)
    ratios = sorted(thresholds)
    half_step = 0.5 * (grid.temp_ratio_axis[1] - grid.temp_ratio_axis[0])
    rises = [
        (a, b) for a, b in zip(ratios, ratios[1:])
        if thresholds[b] > thresholds[a] + half_step
    ]
    peak = max(thresholds, key=thresholds.get)
    print("criterion 09: refrigerator ceiling on the default grid")
    print(
        f"  fridge columns {len(ratios)} ({ratios[0]:+.3f}..{ratios[-1]:+.3f}), "
        f"rising-threshold pairs {len(rises)}, ceiling peaks at ratio {peak:+.3f} "
        f"(T_h/T_c = {thresholds[peak]:.3f})"
    )
    j_b, t_c = grid.anchor.j_b.j_over_kb, grid.anchor.t_cold
    print("  ratio    ceiling  S(J_A, T_c)/k_B   (ln 4 = %.4f)" % math.log(4.0))
    for ratio in ratios[:: max(1, len(ratios) // 12)] + [peak]:
        s = float(_kernels.entropy_dimensionless(ratio * j_b, t_c))
        print(f"  {ratio:+.3f}  {thresholds[ratio]:7.3f}  {s:.4f}")


if __name__ == "__main__":
    criterion_06()
    criterion_07()
    criterion_09()
