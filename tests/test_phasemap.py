"""Tests for mode-map sweeps, zero-work tracing, and cell serialization."""

import math

import numpy as np
import pytest

from spin_stirling import _kernels
from spin_stirling.core import Coupling
from spin_stirling.cycle import OperationMode
from spin_stirling.errors import InvariantViolation, ValidationError
from spin_stirling.phasemap import (
    Branch,
    GridAnchor,
    ModeCell,
    SweepGrid,
    export,
    export_to_path,
    read_cells,
    sweep,
    trace_zero_work_boundary,
)

# Reference cell on the B-negative branch: ratio 1.3125 recovers the
# -42 K / -32 K pressure pair, run between 40 K and 20 K.
REF_WORK = 0.6670520799196522
REF_Q_IN = 3.690862469326503
REF_Q_OUT = -3.0238103894068544

# Bisection roots of the net work along default-grid rays, frozen.
ROOTS_TR_2_0 = (-0.7065697624103019, 1.0)
ROOTS_TR_1_5 = (-0.6807723748672726, 1.0)


def small_grid(ratios, temps, branch=Branch.B_NEGATIVE, j_b=-32.0, t_cold=20.0):
    return SweepGrid(
        coupling_ratio_axis=tuple(ratios),
        temp_ratio_axis=tuple(temps),
        anchor=GridAnchor(j_b=Coupling(j_b), t_cold=t_cold),
        branch=branch,
    )


class TestGridConstruction:
    def test_default_grid_shape(self):
        grid = SweepGrid.default()
        assert len(grid.coupling_ratio_axis) == 400
        assert len(grid.temp_ratio_axis) == 400
        assert grid.coupling_ratio_axis[0] == -3.0
        assert grid.coupling_ratio_axis[-1] == 3.0
        assert grid.temp_ratio_axis[0] == 1.005
        assert grid.temp_ratio_axis[-1] == 3.0
        assert grid.branch is Branch.B_NEGATIVE
        assert grid.anchor.j_b.j_over_kb == -32.0
        assert grid.anchor.t_cold == 20.0

    def test_default_positive_branch_flips_the_anchor(self):
        grid = SweepGrid.default(Branch.B_POSITIVE)
        assert grid.anchor.j_b.j_over_kb == 32.0

    def test_branch_tokens(self):
        assert Branch.from_token("b-negative") is Branch.B_NEGATIVE
        assert Branch.from_token("b-positive") is Branch.B_POSITIVE
        with pytest.raises(ValidationError):
            Branch.from_token("b-imaginary")

    def test_rejects_branch_anchor_sign_mismatch(self):
        with pytest.raises(ValidationError):
            small_grid([0.5], [2.0], branch=Branch.B_POSITIVE, j_b=-32.0)
        with pytest.raises(ValidationError):
            small_grid([0.5], [2.0], branch=Branch.B_NEGATIVE, j_b=32.0)

    def test_rejects_zero_anchor_coupling(self):
        with pytest.raises(ValidationError):
            GridAnchor(j_b=Coupling(0.0), t_cold=20.0)

    def test_rejects_nonpositive_anchor_temperature(self):
        with pytest.raises(ValidationError):
            GridAnchor(j_b=Coupling(-32.0), t_cold=0.0)

    def test_rejects_temperature_ratios_at_or_below_one(self):
        with pytest.raises(ValidationError):
            small_grid([0.5], [1.0])
        with pytest.raises(ValidationError):
            small_grid([0.5], [0.9])

    def test_rejects_non_increasing_axes(self):
        with pytest.raises(ValidationError):
            small_grid([0.5, 0.5], [2.0])
        with pytest.raises(ValidationError):
            small_grid([0.5], [2.0, 1.5])

    def test_rejects_empty_axes(self):
        with pytest.raises(ValidationError):
            small_grid([], [2.0])
        with pytest.raises(ValidationError):
            small_grid([0.5], [])


class TestSweep:
    def test_reference_cell(self):
        cells = sweep(small_grid([1.3125], [2.0]))
        assert len(cells) == 1
        cell = cells[0]
        assert cell.mode is OperationMode.HEAT_ENGINE
        assert cell.work == pytest.approx(REF_WORK, abs=1e-13)
        assert cell.q_in == pytest.approx(REF_Q_IN, abs=1e-13)
        assert cell.q_out == pytest.approx(REF_Q_OUT, abs=1e-13)
        assert cell.eta_over_carnot is not None
        assert 0.0 < cell.eta_over_carnot < 1.0

    def test_cells_are_row_major_with_temperature_outer(self):
        grid = small_grid([0.5, 1.5], [1.5, 2.0, 2.5])
        cells = sweep(grid)
        assert len(cells) == 6
        observed = [(c.temp_ratio, c.coupling_ratio) for c in cells]
        expected = [
            (tr, cr)
            for tr in grid.temp_ratio_axis
            for cr in grid.coupling_ratio_axis
        ]
        assert observed == expected

    def test_eta_present_only_in_engine_mode(self):
        cells = sweep(small_grid([-0.5, 0.5, 1.3125], [1.2, 2.0]))
        for cell in cells:
            if cell.mode is OperationMode.HEAT_ENGINE:
                assert cell.eta_over_carnot is not None
            else:
                assert cell.eta_over_carnot is None

    def test_unit_coupling_ratio_cell_is_a_zero_width_accelerator(self):
        # At ratio 1 the two couplings coincide, every isothermal heat is
        # exactly zero, and the cell sits on the (0, +, -) boundary.
        cells = sweep(small_grid([1.0], [2.0]))
        cell = cells[0]
        assert cell.work == 0.0
        assert cell.mode is OperationMode.ACCELERATOR

    def test_near_degenerate_temperature_ratios_give_tiny_work(self):
        cells = sweep(small_grid([0.9999999, 1.0000001], [1.0 + 1e-13, 1.0 + 2e-13]))
        for cell in cells:
            assert (
                cell.mode is OperationMode.CARNOT_DEGENERATE or abs(cell.work) < 1e-9
            )

    def test_cells_beyond_the_coupling_cap_are_flagged(self):
        grid = small_grid([0.5, 2.0], [2.0], j_b=-32.0)
        grid = SweepGrid(
            coupling_ratio_axis=grid.coupling_ratio_axis,
            temp_ratio_axis=grid.temp_ratio_axis,
            anchor=GridAnchor(j_b=Coupling(-32.0, cap=40.0), t_cold=20.0),
            branch=Branch.B_NEGATIVE,
        )
        cells = sweep(grid)
        ok, flagged = cells
        assert ok.mode is not OperationMode.FORBIDDEN
        assert flagged.mode is OperationMode.FORBIDDEN
        assert math.isnan(flagged.work)

    def test_sweep_is_deterministic(self):
        grid = small_grid(np.linspace(-2, 2, 17), np.linspace(1.1, 2.9, 13))
        assert sweep(grid) == sweep(grid)

    def test_first_law_violation_is_caught_on_the_grid(self, monkeypatch):
        # A 1e-6 relative error in the work is 1e4 times the closure
        # tolerance; every grid cell must go through the same check as
        # a single cycle.
        net_work = _kernels.net_work
        monkeypatch.setattr(
            _kernels, "net_work", lambda *args: net_work(*args) * (1.0 + 1e-6)
        )
        with pytest.raises(InvariantViolation, match="first-law closure"):
            sweep(small_grid([-0.5, 0.5, 1.3125], [1.2, 2.0]))


class TestModeCell:
    def test_rejects_eta_outside_engine_mode(self):
        with pytest.raises(ValidationError):
            ModeCell(
                coupling_ratio=0.5,
                temp_ratio=1.2,
                mode=OperationMode.HEATER,
                work=-1.0,
                q_in=-0.5,
                q_out=-0.5,
                eta_over_carnot=0.5,
            )

    def test_rejects_missing_eta_in_engine_mode(self):
        with pytest.raises(ValidationError):
            ModeCell(
                coupling_ratio=1.5,
                temp_ratio=2.0,
                mode=OperationMode.HEAT_ENGINE,
                work=1.0,
                q_in=2.0,
                q_out=-1.0,
                eta_over_carnot=None,
            )


class TestZeroWorkBoundary:
    def test_frozen_roots_on_the_default_grid(self):
        grid = SweepGrid.default()
        roots = trace_zero_work_boundary(grid, 2.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(ROOTS_TR_2_0[0], abs=1e-9)
        assert roots[1] == pytest.approx(ROOTS_TR_2_0[1], abs=1e-9)

    def test_roots_move_with_the_temperature_ratio(self):
        grid = SweepGrid.default()
        roots = trace_zero_work_boundary(grid, 1.5)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(ROOTS_TR_1_5[0], abs=1e-9)
        assert roots[1] == pytest.approx(ROOTS_TR_1_5[1], abs=1e-9)

    def test_roots_are_sorted(self):
        roots = trace_zero_work_boundary(SweepGrid.default(), 2.5)
        assert roots == sorted(roots)

    def test_ray_without_sign_change_has_no_roots(self):
        grid = small_grid([1.5, 2.0, 2.5], [1.5, 2.0])
        assert trace_zero_work_boundary(grid, 2.0) == []

    def test_exact_grid_zero_is_reported_as_a_root(self):
        grid = small_grid([0.5, 1.0, 1.5], [1.5, 2.0])
        roots = trace_zero_work_boundary(grid, 2.0)
        assert 1.0 in roots

    def test_rejects_degenerate_temperature_ratio(self):
        with pytest.raises(ValidationError):
            trace_zero_work_boundary(SweepGrid.default(), 1.0)

    def test_work_vanishes_at_the_traced_roots(self):
        from spin_stirling.cycle import CycleSpec, total_work

        grid = SweepGrid.default()
        for root in trace_zero_work_boundary(grid, 2.0):
            j_b = grid.anchor.j_b.j_over_kb
            j_a = root * j_b
            if j_a == j_b:
                continue  # trivial root, zero by construction
            t_c = grid.anchor.t_cold
            w = total_work(CycleSpec.from_values(j_a, j_b, 2.0 * t_c, t_c))
            assert abs(w) < 1e-8


class TestRegionCoherence:
    def test_single_cell_islands_only_appear_at_sign_changes(self):
        # On the default map each row should be a handful of contiguous
        # mode runs; a lone cell is legitimate only where the net work
        # changes sign between its neighbours.
        grid = SweepGrid.default()
        cells = sweep(grid)
        n_cols = len(grid.coupling_ratio_axis)
        rows = [cells[i : i + n_cols] for i in range(0, len(cells), n_cols)]
        def channels(cell):
            return (cell.work, cell.q_in, cell.q_out)

        stray = 0
        for row in rows:
            for k in range(1, n_cols - 1):
                cell = row[k]
                if row[k - 1].mode is cell.mode or row[k + 1].mode is cell.mode:
                    continue
                flips = any(
                    math.copysign(1.0, a) != math.copysign(1.0, b)
                    for a, b in zip(channels(row[k - 1]), channels(row[k + 1]))
                )
                if not flips and abs(cell.work) > 1e-10:
                    stray += 1
        assert stray == 0


class TestSerialization:
    @pytest.fixture()
    def cells(self):
        return sweep(small_grid(np.linspace(-2, 2, 10), np.linspace(1.1, 2.9, 10)))

    def test_csv_header(self, cells):
        header = export(cells, format="csv").splitlines()[0]
        assert header == (
            b"coupling_ratio,temp_ratio,mode,work,q_in,q_out,eta_over_carnot"
        )

    def test_csv_roundtrip_is_bit_exact(self, cells):
        assert read_cells(export(cells, format="csv"), format="csv") == cells

    def test_json_roundtrip_is_bit_exact(self, cells):
        assert read_cells(export(cells, format="json"), format="json") == cells

    def test_non_engine_rows_have_an_empty_efficiency_field(self, cells):
        lines = export(cells, format="csv").decode("ascii").splitlines()[1:]
        by_token = {}
        for line in lines:
            fields = line.split(",")
            by_token.setdefault(fields[2], []).append(fields[6])
        for token, etas in by_token.items():
            if token == "heat_engine":
                assert all(e != "" for e in etas)
            else:
                assert all(e == "" for e in etas)

    def test_single_cell_export(self):
        cells = sweep(small_grid([1.3125], [2.0]))
        data = export(cells, format="csv")
        assert len(data.splitlines()) == 2

    def test_rejects_empty_cell_list(self):
        with pytest.raises(ValidationError):
            export([], format="csv")

    def test_rejects_unknown_format(self, cells):
        with pytest.raises(ValidationError):
            export(cells, format="yaml")
        with pytest.raises(ValidationError):
            read_cells(b"", format="yaml")

    def test_export_to_path_writes_the_file(self, cells, tmp_path):
        target = tmp_path / "map.csv"
        export_to_path(cells, str(target), format="csv")
        assert target.read_bytes() == export(cells, format="csv")

    def test_export_to_path_reports_the_failing_path(self, cells, tmp_path):
        target = tmp_path / "missing" / "map.csv"
        with pytest.raises(OSError) as err:
            export_to_path(cells, str(target), format="csv")
        assert "map.csv" in str(err.value)
