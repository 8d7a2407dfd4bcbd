"""Tests for mode-map sweeps, zero-work tracing, and cell serialization."""

import json
import math
import re
import struct
import threading
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_stirling import _format, _kernels, phasemap
from spin_stirling.cli import schema_text
from spin_stirling.core import Coupling
from spin_stirling.cycle import (
    _CARNOT,
    _ENGINE,
    _FORBIDDEN,
    OperationMode,
    _roundoff_floor,
)
from spin_stirling.errors import InvariantViolation, ValidationError
from spin_stirling.phasemap import (
    Branch,
    GridAnchor,
    ModeCell,
    ModeMap,
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


def small_grid(
    ratios, temps, branch=Branch.B_NEGATIVE, j_b=-32.0, t_cold=20.0, cap=None
):
    coupling = Coupling(j_b) if cap is None else Coupling(j_b, cap=cap)
    return SweepGrid(
        coupling_ratio_axis=tuple(ratios),
        temp_ratio_axis=tuple(temps),
        anchor=GridAnchor(j_b=coupling, t_cold=t_cold),
        branch=branch,
    )


def edge_grid():
    """A grid holding every formatting edge case in a few cells.

    The cap of 50 K flags ratio 2 (|j_a| = 64 K, NaN energies) and keeps
    ratio 1.3125 (the reference heat engine at 2.0); the axes carry a
    -0.0 coupling ratio, a ratio of exactly 1 and a temperature ratio
    of 1 + 1e-13.
    """
    return small_grid(
        [-0.5, -0.0, 0.5, 1.0, 1.3125, 2.0], [1.0 + 1e-13, 1.5, 2.0], cap=50.0
    )


# Reference serializers: the per-cell formatters that defined the export
# bytes before export became columnar.  ``export`` must match them byte
# for byte.


def _reference_float(value):
    return "%.17g" % value


def _reference_json_number(value):
    return "null" if math.isnan(value) else _reference_float(value)


def reference_csv(cells):
    lines = ["coupling_ratio,temp_ratio,mode,work,q_in,q_out,eta_over_carnot"]
    for cell in cells:
        eta = (
            "" if cell.eta_over_carnot is None
            else _reference_float(cell.eta_over_carnot)
        )
        lines.append(
            ",".join(
                (
                    _reference_float(cell.coupling_ratio),
                    _reference_float(cell.temp_ratio),
                    cell.mode.token,
                    _reference_float(cell.work),
                    _reference_float(cell.q_in),
                    _reference_float(cell.q_out),
                    eta,
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_json(cells):
    rows = []
    for cell in cells:
        eta = (
            "null" if cell.eta_over_carnot is None
            else _reference_float(cell.eta_over_carnot)
        )
        rows.append(
            "{"
            f'"coupling_ratio": {_reference_json_number(cell.coupling_ratio)}, '
            f'"temp_ratio": {_reference_json_number(cell.temp_ratio)}, '
            f'"mode": {json.dumps(cell.mode.token)}, '
            f'"work": {_reference_json_number(cell.work)}, '
            f'"q_in": {_reference_json_number(cell.q_in)}, '
            f'"q_out": {_reference_json_number(cell.q_out)}, '
            f'"eta_over_carnot": {eta}'
            "}"
        )
    return ("[\n" + ",\n".join(rows) + "\n]\n").encode("utf-8")


REFERENCE_EXPORTS = {"csv": reference_csv, "json": reference_json}

COLUMNS = (
    "coupling_ratio", "temp_ratio", "mode_code", "work", "q_in", "q_out",
    "eta_over_carnot",
)


def assert_same_columns(ours, theirs):
    """Equal columns; floats bit for bit, with NaN where either has NaN."""
    for name in COLUMNS:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype, name
        if a.dtype == np.float64:
            nan = np.isnan(a)
            assert np.array_equal(nan, np.isnan(b)), name
            a, b = a[~nan].view(np.int64), b[~nan].view(np.int64)
        assert np.array_equal(a, b), name


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


class TestDeepGapModes:
    """Non-flagged cells are never FORBIDDEN, even where every stroke heat
    underflows and only a roundoff residue of the work is left."""

    @pytest.mark.parametrize(
        "branch, j_b, t_cold",
        [
            (Branch.B_POSITIVE, 200.0, 5.0),
            (Branch.B_POSITIVE, 300.0, 5.0),
            (Branch.B_POSITIVE, 3000.0, 5.0),
            (Branch.B_NEGATIVE, -300.0, 5.0),
        ],
    )
    def test_deep_gap_grids_have_no_forbidden_cells(self, branch, j_b, t_cold):
        grid = small_grid(
            np.linspace(-3.0, 3.0, 200),
            np.linspace(1.0001, 3.0, 200),
            branch=branch,
            j_b=j_b,
            t_cold=t_cold,
        )
        cells = sweep(grid)
        assert not np.isnan(cells.work).any()
        assert not (cells.mode_code == _FORBIDDEN).any()

    @given(
        j_b=st.floats(min_value=0.01, max_value=5000.0),
        negative=st.booleans(),
        t_cold=st.floats(min_value=0.05, max_value=300.0),
        gap=st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]),
        cap=st.sampled_from([None, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_unflagged_cells_are_finite_and_never_forbidden(
        self, j_b, negative, t_cold, gap, cap
    ):
        # |J|/T reaches 3 * 5000 / 0.05 = 3e5 and the temperature ratio
        # starts at 1 + 1e-9; a cap of twice |j_b| flags ratios beyond 2.
        grid = small_grid(
            np.linspace(-3.0, 3.0, 25),
            np.linspace(1.0 + gap, 3.0, 9),
            branch=Branch.B_NEGATIVE if negative else Branch.B_POSITIVE,
            j_b=-j_b if negative else j_b,
            t_cold=t_cold,
            cap=None if cap is None else cap * j_b,
        )
        cells = sweep(grid)
        flagged = np.abs(cells.coupling_ratio * j_b) > grid.anchor.j_b.cap
        assert not np.isnan(cells.work[~flagged]).any()
        assert not (cells.mode_code[~flagged] == _FORBIDDEN).any()
        assert (cells.mode_code[flagged] == _FORBIDDEN).all()

    @given(
        j_b=st.floats(min_value=0.01, max_value=5000.0),
        negative=st.booleans(),
        t_cold=st.floats(min_value=0.05, max_value=300.0),
        gap=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_unflagged_mode_reads_a_sign_below_the_roundoff_floor(
        self, j_b, negative, t_cold, gap
    ):
        j_b = -j_b if negative else j_b
        grid = small_grid(
            np.linspace(-3.0, 3.0, 25),
            np.linspace(1.0 + gap, 3.0, 9),
            branch=Branch.B_NEGATIVE if negative else Branch.B_POSITIVE,
            j_b=j_b,
            t_cold=t_cold,
            cap=2.0 * abs(j_b),
        )
        cells = sweep(grid)
        j_a = cells.coupling_ratio * j_b
        keep = np.abs(j_a) <= grid.anchor.j_b.cap
        floor = _roundoff_floor(j_a, j_b, cells.temp_ratio * t_cold, t_cold)[keep]
        work, mode = cells.work[keep], cells.mode_code[keep]
        largest = np.max(np.abs([work, cells.q_in[keep], cells.q_out[keep]]), axis=0)
        assert (mode[largest <= floor] == _CARNOT).all()
        engine = mode == _ENGINE
        assert (work[engine] > floor[engine]).all()
        assert not (mode == _FORBIDDEN).any()


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


def reference_trace(grid, temp_ratio):
    """The zero-work tracer with a scalar work evaluation per axis point,
    as it stood before the axis scan became one array call."""
    j_b = grid.anchor.j_b.j_over_kb
    t_cold = grid.anchor.t_cold
    t_hot = temp_ratio * t_cold

    def work_at(ratio):
        return float(_kernels.net_work(ratio * j_b, j_b, t_hot, t_cold))

    axis = grid.coupling_ratio_axis
    values = [work_at(r) for r in axis]
    roots = [r for r, w in zip(axis, values) if w == 0.0]
    for (a, wa), (b, wb) in zip(zip(axis, values), zip(axis[1:], values[1:])):
        if wa == 0.0 or wb == 0.0 or (wa > 0.0) == (wb > 0.0):
            continue
        while (b - a) > max(
            phasemap.ROOT_RTOL * max(abs(a), abs(b)), phasemap.ROOT_ATOL
        ):
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
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
    deduped = []
    for root in roots:
        if not deduped or abs(root - deduped[-1]) > 1e-12 * max(1.0, abs(root)):
            deduped.append(root)
    return deduped


@st.composite
def traced_rows(draw):
    """A grid anchor and axis plus one temperature ratio.

    Axes are either evenly spaced over [-3, 3], which puts ratio 0 on
    the axis for odd counts, or drawn at random, sometimes with ratio 1
    added, where the work is exactly zero.
    """
    magnitude = draw(st.floats(min_value=0.5, max_value=500.0))
    branch = draw(st.sampled_from(list(Branch)))
    j_b = -magnitude if branch is Branch.B_NEGATIVE else magnitude
    t_cold = draw(st.floats(min_value=0.5, max_value=100.0))
    if draw(st.booleans()):
        axis = np.linspace(-3.0, 3.0, draw(st.integers(2, 121))).tolist()
    else:
        points = draw(
            st.lists(
                st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=60
            )
        )
        if draw(st.booleans()):
            points.append(1.0)
        axis = sorted(set(points))
    temp_ratio = draw(
        st.one_of(
            st.sampled_from([1.0 + 1e-9, 1.0 + 2e-9]),
            st.floats(min_value=1.0 + 1e-9, max_value=10.0),
        )
    )
    grid = small_grid(axis, [2.0], branch=branch, j_b=j_b, t_cold=t_cold)
    return grid, temp_ratio


class TestZeroWorkBoundary:
    @given(traced_rows())
    @settings(max_examples=80, deadline=None)
    def test_axis_scan_matches_scalar_work_bit_for_bit(self, row):
        grid, temp_ratio = row
        j_b = grid.anchor.j_b.j_over_kb
        t_cold = grid.anchor.t_cold
        t_hot = temp_ratio * t_cold
        axis = grid.coupling_ratio_axis
        batched = _kernels.net_work(np.asarray(axis) * j_b, j_b, t_hot, t_cold)
        scalar = [float(_kernels.net_work(r * j_b, j_b, t_hot, t_cold)) for r in axis]
        assert batched.view(np.int64).tolist() == (
            np.array(scalar).view(np.int64).tolist()
        )

    @given(traced_rows())
    @settings(max_examples=80, deadline=None)
    def test_roots_match_the_scalar_scan(self, row):
        grid, temp_ratio = row
        roots = trace_zero_work_boundary(grid, temp_ratio)
        expected = reference_trace(grid, temp_ratio)
        assert np.array(roots).view(np.int64).tolist() == (
            np.array(expected).view(np.int64).tolist()
        )

    def test_exact_zeros_on_the_axis_match_the_scalar_scan(self):
        # Ratio 1 gives exactly zero work; ratio 0 is an exact axis zero.
        grid = small_grid(np.linspace(-3.0, 3.0, 7), [2.0])
        assert 1.0 in grid.coupling_ratio_axis and 0.0 in grid.coupling_ratio_axis
        for temp_ratio in (1.0 + 1e-9, 1.5, 2.0):
            roots = trace_zero_work_boundary(grid, temp_ratio)
            assert 1.0 in roots
            assert roots == reference_trace(grid, temp_ratio)

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

    def test_rejects_empty_cell_list(self, cells):
        for empty in ([], cells[:0]):
            with pytest.raises(ValidationError):
                export(empty, format="csv")

    def test_rejects_unknown_format(self, cells):
        for fmt in ("yaml", ["csv"]):
            with pytest.raises(ValidationError, match="unknown export format"):
                export(cells, format=fmt)
            with pytest.raises(ValidationError, match="unknown export format"):
                read_cells(b"", format=fmt)

    def test_export_to_path_writes_the_file(self, cells, tmp_path):
        target = tmp_path / "map.csv"
        export_to_path(cells, str(target), format="csv")
        assert target.read_bytes() == export(cells, format="csv")

    def test_export_to_path_reports_the_failing_path(self, cells, tmp_path):
        target = tmp_path / "missing" / "map.csv"
        with pytest.raises(OSError) as err:
            export_to_path(cells, str(target), format="csv")
        assert "map.csv" in str(err.value)

    def test_flagged_cells_roundtrip_bit_exact(self):
        cells = sweep(edge_grid())
        assert np.isnan(cells.work).any()
        for fmt in ("csv", "json"):
            assert_same_columns(read_cells(export(cells, format=fmt), format=fmt), cells)

    def test_flagged_json_export_matches_the_schema(self):
        data = export(sweep(edge_grid()), format="json")
        jsonschema.validate(json.loads(data), json.loads(schema_text("mode_map")))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("coupling_ratio", math.inf),
            ("temp_ratio", -math.inf),
            ("work", math.inf),
            ("q_in", -math.inf),
            ("q_out", math.inf),
        ],
    )
    def test_json_export_refuses_an_infinity(self, name, value, tmp_path):
        self.assert_only_csv_holds(name, value, tmp_path)

    @pytest.mark.parametrize("name", ["coupling_ratio", "temp_ratio"])
    def test_json_export_refuses_a_nan_ratio(self, name, tmp_path):
        self.assert_only_csv_holds(name, math.nan, tmp_path)

    @staticmethod
    def assert_only_csv_holds(name, value, tmp_path):
        edges = sweep(edge_grid())
        columns = {field: np.array(getattr(edges, field)) for field in COLUMNS}
        columns[name][5] = value
        cells = ModeMap(**columns)
        message = f"cannot hold {name} {value!r} at cell 5"
        with pytest.raises(ValidationError, match=re.escape(message)):
            export(cells, format="json")
        target = tmp_path / "map.json"
        with pytest.raises(ValidationError, match=re.escape(message)):
            export_to_path(cells, str(target), format="json")
        assert not target.exists()
        csv = export(cells, format="csv")
        assert_same_columns(read_cells(csv, format="csv"), cells)


FLOAT_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
    -1e-300, math.nan, math.inf, -math.inf,
)


def float_values(json_only):
    """Doubles from raw bit patterns and edge values; without infinities
    when ``json_only``."""
    values = st.one_of(
        st.integers(0, 2**64 - 1).map(
            lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
        ),
        st.sampled_from(FLOAT_EDGES),
    )
    return values.filter(lambda v: not math.isinf(v)) if json_only else values


@st.composite
def mode_maps(draw, json_only):
    """Maps with arbitrary energies, repeating ratios and random modes;
    ``json_only`` leaves out the values a JSON export refuses."""
    n = draw(st.integers(1, 40))
    ratio_values = float_values(json_only)
    if json_only:
        ratio_values = ratio_values.filter(math.isfinite)

    def repeating():
        values = st.one_of(st.just(-0.0), ratio_values)
        pool = draw(st.lists(values, min_size=1, max_size=4))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))

    def energies():
        return np.array(draw(st.lists(float_values(json_only), min_size=n, max_size=n)))

    mode_codes = st.integers(0, len(OperationMode) - 1)
    codes = draw(st.lists(mode_codes, min_size=n, max_size=n))
    efficiency = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    eta = [draw(efficiency) if code == _ENGINE else math.nan for code in codes]
    return ModeMap(
        coupling_ratio=repeating(), temp_ratio=repeating(),
        mode_code=np.array(codes, np.int8), work=energies(), q_in=energies(),
        q_out=energies(), eta_over_carnot=np.array(eta),
    )


class TestExportBytes:
    GRIDS = {
        "edges": edge_grid,
        "b-negative": lambda: small_grid(
            np.linspace(-3.0, 3.0, 37), np.linspace(1.005, 3.0, 23)
        ),
        "b-positive": lambda: small_grid(
            np.linspace(-3.0, 3.0, 29), np.linspace(1.0 + 1e-9, 3.0, 17),
            branch=Branch.B_POSITIVE, j_b=32.0,
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_matches_the_per_cell_reference(self, grid, fmt):
        cells = sweep(self.GRIDS[grid]())
        assert export(cells, format=fmt) == REFERENCE_EXPORTS[fmt](cells)

    def test_edge_grid_covers_the_edge_cases(self):
        cells = list(sweep(edge_grid()))
        modes = {cell.mode for cell in cells}
        assert {OperationMode.FORBIDDEN, OperationMode.HEAT_ENGINE} <= modes
        assert any(math.isnan(cell.work) for cell in cells)
        assert any(
            cell.coupling_ratio == 0.0 and math.copysign(1.0, cell.coupling_ratio) < 0
            for cell in cells
        )
        assert any(cell.coupling_ratio == 1.0 for cell in cells)
        assert any(cell.temp_ratio == 1.0 + 1e-13 for cell in cells)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_plain_cell_lists_are_refused(self, fmt, tmp_path):
        cells = list(sweep(edge_grid()))
        with pytest.raises(ValidationError, match="requires a ModeMap, got list"):
            export(cells, format=fmt)
        target = tmp_path / f"map.{fmt}"
        with pytest.raises(ValidationError, match="requires a ModeMap, got list"):
            export_to_path(cells, str(target), format=fmt)
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_block_size_does_not_change_the_bytes(
        self, fmt, block_rows, monkeypatch, tmp_path
    ):
        cells = sweep(edge_grid())
        assert len(cells) % 7 != 0
        expected = export(cells, format=fmt)
        monkeypatch.setattr(_format, "_BLOCK_ROWS", block_rows)
        assert export(cells, format=fmt) == expected
        target = tmp_path / f"map.{fmt}"
        export_to_path(cells, str(target), format=fmt)
        assert target.read_bytes() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_maps_match_the_per_cell_reference(self, fmt, data):
        cells = data.draw(mode_maps(json_only=fmt == "json"))
        expected = REFERENCE_EXPORTS[fmt](cells)
        for block_rows in (1, 7, _format._BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_format, "_BLOCK_ROWS", block_rows)
                assert export(cells, format=fmt) == expected
        assert_same_columns(read_cells(expected, format=fmt), cells)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_pairs_write_the_serial_bytes(self, fmt, monkeypatch):
        # Two pairs of blocks and a lone last block of five rows.
        cells = sweep(SweepGrid.default(resolution=200))[: 4 * _format._BLOCK_ROWS + 5]
        pairs = []
        both = _format._both

        def counted(first, second):
            pairs.append(first)
            return both(first, second)

        monkeypatch.setattr(_format, "_both", counted)
        # A block longer than the map holds it all: the serial bytes.
        with monkeypatch.context() as patch:
            patch.setattr(_format, "_BLOCK_ROWS", len(cells) + 1)
            serial = export(cells, format=fmt)
        assert pairs == []
        assert export(cells, format=fmt) == serial
        assert len(pairs) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_error_in_a_helper_block_reaches_the_caller(
        self, fmt, monkeypatch, tmp_path
    ):
        class BlockError(Exception):
            pass

        cells = sweep(edge_grid())
        caller = threading.get_ident()
        text_17g = _format._text_17g

        def text_failing_off_the_caller(values):
            if threading.get_ident() != caller:
                raise BlockError("no text on the helper thread")
            return text_17g(values)

        monkeypatch.setattr(_format, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(_format, "_text_17g", text_failing_off_the_caller)
        baseline = threading.active_count()
        for write in (
            lambda: export(cells, format=fmt),
            lambda: export_to_path(cells, str(tmp_path / "map"), format=fmt),
        ):
            with pytest.raises(BlockError) as raised:
                write()
            assert type(raised.value) is BlockError
            assert str(raised.value) == "no text on the helper thread"
            assert threading.active_count() == baseline

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_json_exports_are_read_by_the_layout_scan(self, grid):
        cells = sweep(self.GRIDS[grid]())
        assert_same_columns(read_cells(export(cells, format="json"), format="json"), cells)

    def test_export_to_path_memory_does_not_grow_with_the_grid(
        self, monkeypatch, tmp_path
    ):
        # 512-row blocks built in pairs: 2,500 cells make two pairs and a
        # lone block, 14,400 cells make 14 pairs and a lone block.
        monkeypatch.setattr(_format, "_BLOCK_ROWS", 512)

        def peak_bytes(resolution):
            cells = sweep(SweepGrid.default(resolution=resolution))
            tracemalloc.start()
            try:
                export_to_path(cells, str(tmp_path / "map.json"), format="json")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(120) < 2 * peak_bytes(50)


class TestModeMap:
    @pytest.fixture()
    def cells(self):
        return sweep(small_grid([-0.5, 0.5, 1.3125], [1.2, 2.0, 2.5]))

    def test_rejects_eta_outside_engine_cells(self, cells):
        columns = {
            name: np.array(getattr(cells, name))
            for name in (
                "coupling_ratio", "temp_ratio", "mode_code", "work", "q_in",
                "q_out", "eta_over_carnot",
            )
        }
        engine = columns["mode_code"] == list(OperationMode).index(
            OperationMode.HEAT_ENGINE
        )
        assert engine.any() and not engine.all()
        stray = dict(
            columns,
            eta_over_carnot=np.where(engine, columns["eta_over_carnot"], 0.5),
        )
        with pytest.raises(ValidationError, match="must be absent"):
            ModeMap(**stray)
        missing = dict(columns, eta_over_carnot=np.full(len(cells), np.nan))
        with pytest.raises(ValidationError, match="require eta_over_carnot"):
            ModeMap(**missing)

    def test_rejects_ragged_columns(self, cells):
        with pytest.raises(ValidationError, match="flat column"):
            ModeMap(
                cells.coupling_ratio, cells.temp_ratio, cells.mode_code,
                cells.work[:-1], cells.q_in, cells.q_out, cells.eta_over_carnot,
            )


class TestReadCellsErrors:
    @pytest.fixture()
    def cells(self):
        return sweep(small_grid([-0.5, 0.5, 1.3125], [1.2, 2.0]))

    def test_non_numeric_csv_field_is_a_validation_error(self, cells):
        lines = export(cells, format="csv").split(b"\n")
        lines[2] = lines[2].replace(b",", b",x", 1)
        with pytest.raises(ValidationError, match="export row") as err:
            read_cells(b"\n".join(lines), format="csv")
        assert lines[2].decode() in str(err.value)

    def test_json_row_without_a_key_is_a_validation_error(self, cells):
        data = export(cells, format="json")
        lines = data.split(b"\n")
        lines[2] = re.sub(rb'"q_in": [^,]*, ', b"", lines[2])
        assert refusal(b"\n".join(lines), "json") == (
            f"malformed export row at line 3: {lines[2].decode()!r}"
        )
        # The same rows in json.dumps' layout are not export text.
        rows = json.loads(data)
        del rows[1]["q_in"]
        assert refusal(json.dumps(rows).encode(), "json") == (
            "JSON header does not match the export contract"
        )

    def test_truncated_json_is_a_validation_error(self, cells):
        data = export(cells, format="json")
        cut = data[: len(data) // 2]
        line = cut.count(b"\n") + 1
        text = cut.decode().rsplit("\n", 1)[1]
        assert refusal(cut, "json") == f"malformed export row at line {line}: {text!r}"

    def test_unknown_mode_token_is_rejected(self, cells):
        data = export(cells, format="csv").replace(b",heater,", b",boiler,", 1)
        assert b"boiler" in data
        with pytest.raises(ValidationError, match="boiler"):
            read_cells(data, format="csv")

    def test_efficiency_presence_rule(self, cells):
        lines = export(cells, format="csv").decode().split("\n")
        engine = next(k for k, line in enumerate(lines) if ",heat_engine," in line)
        other = next(
            k for k, line in enumerate(lines[1:], 1)
            if line and ",heat_engine," not in line
        )
        absent = list(lines)
        absent[engine] = absent[engine].rsplit(",", 1)[0] + ","
        with pytest.raises(ValidationError):
            read_cells("\n".join(absent).encode(), format="csv")
        present = list(lines)
        present[other] = present[other] + "nan"
        with pytest.raises(ValidationError, match="must be absent"):
            read_cells("\n".join(present).encode(), format="csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_that_are_not_utf8_are_a_validation_error(self, cells, fmt):
        data = export(cells, format=fmt)
        with pytest.raises(ValidationError, match="byte 40"):
            read_cells(data[:40] + b"\xff" + data[40:], format=fmt)

    def test_unknown_format_is_rejected_before_decoding(self):
        with pytest.raises(ValidationError, match="unknown export format 'yaml'"):
            read_cells(b"\xff", format="yaml")

    def test_json_efficiency_presence_rule(self, cells):
        lines = export(cells, format="json").decode().split("\n")
        engine = next(k for k, line in enumerate(lines) if '"heat_engine"' in line)
        other = next(k for k, line in enumerate(lines) if '"refrigerator"' in line)
        absent = list(lines)
        absent[engine] = re.sub(r'("eta_over_carnot": )[^}]*', r"\1null", lines[engine])
        assert refusal("\n".join(absent).encode(), "json") == (
            f"malformed export row at line {engine + 1}: {absent[engine]!r}"
        )
        present = list(lines)
        present[other] = lines[other].replace(": null}", ": 0.5}")
        assert refusal("\n".join(present).encode(), "json") == (
            "eta_over_carnot must be absent for mode 'refrigerator' in export row "
            f"at line {other + 1}: {present[other]!r}"
        )

    @pytest.mark.parametrize(
        "key, literal",
        [
            ("work", b"true"),
            ("work", b'"1e3"'),
            ("q_in", b'"nan"'),
            ("q_out", b"[1.0]"),
            ("eta_over_carnot", b'"0.5"'),
            ("coupling_ratio", b"null"),
            ("temp_ratio", b"null"),
            ("mode", b"3"),
            ("mode", b'["heater"]'),
            ("mode", b"null"),
        ],
    )
    def test_json_values_must_have_the_schema_types(self, cells, key, literal):
        data = re.sub(
            rb'"%s": [^,}]*' % key.encode(), b'"%s": %s' % (key.encode(), literal),
            export(cells, format="json"), count=1,
        )
        # A string in the efficiency of a row off engine is an efficiency
        # that must be absent.
        row = data.split(b"\n")[1].decode()
        assert refusal(data, "json").endswith(f" export row at line 2: {row!r}")

    @pytest.mark.parametrize(
        "key, literal",
        [
            ("coupling_ratio", b"NaN"),
            ("temp_ratio", b"Infinity"),
            ("work", b"-Infinity"),
            ("work", b"-1e400"),
            ("q_out", b"1e999"),
            ("coupling_ratio", b"-1e400"),
        ],
        ids=["nan-ratio", "infinity", "minus-infinity", "minus-overflow", "overflow",
             "ratio-overflow"],
    )
    # One space keeps the export's layout; two leave it, though json.loads
    # still reads the text.
    @pytest.mark.parametrize("space", [b" ", b"  "], ids=["layout", "json-loads"])
    def test_json_reads_refuse_what_json_exports_refuse(self, cells, key, literal, space):
        data = re.sub(
            rb'"%s": [^,}]*' % key.encode(), b'"%s":%s%s' % (key.encode(), space, literal),
            export(cells, format="json"), count=1,
        )
        row = data.split(b"\n")[1].decode()
        assert refusal(data, "json") == f"malformed export row at line 2: {row!r}"

    def test_a_json_export_without_rows_is_rejected(self):
        header = "JSON header does not match the export contract"
        assert refusal(b"[]", "json") == header
        assert refusal(b"[\n", "json") == "JSON export has no rows"
        assert refusal(b"[\n]\n", "json") == "malformed export row at line 2: ']'"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_row_that_scans_alone_is_not_said_to_hold_an_efficiency(self, fmt):
        # Off-engine rows that scan alone: the last CSV row without its
        # newline, and a JSON row that lost its separating comma.
        lines = export(sweep(edge_grid()), format=fmt).split(b"\n")
        assert b"heat_engine" not in lines[-2] + lines[1]
        if fmt == "csv":
            lines.pop()
            k = len(lines) - 1
        else:
            k = 1
            lines[k] = lines[k].removesuffix(b",")
        assert refusal(b"\n".join(lines), fmt) == (
            f"malformed export row at line {k + 1}: {lines[k].decode()!r}"
        )

    def test_a_csv_export_without_rows_is_rejected(self, cells):
        header = export(cells, format="csv").split(b"\n")[0]
        with pytest.raises(ValidationError, match="CSV export has no rows"):
            read_cells(header + b"\n", format="csv")


def outcome(read):
    """What ``read()`` gives: a map, or the text of its ValidationError."""
    try:
        return read()
    except ValidationError as exc:
        return str(exc)


def refusal(data, fmt):
    """The text of the ValidationError that ``read_cells`` raises."""
    with pytest.raises(ValidationError) as err:
        read_cells(data, format=fmt)
    return str(err.value)


def json_loads_map(data):
    """The map ``json.loads`` reads from a JSON export: the reference for
    the layout scan.  Integers parse as floats, so ``-0`` keeps its sign."""
    rows = json.loads(data, parse_int=float)
    tokens = [mode.token for mode in OperationMode]
    return ModeMap(
        mode_code=np.array([tokens.index(row["mode"]) for row in rows]),
        **{
            name: np.array([row[name] for row in rows], dtype=float)
            for name in COLUMNS if name != "mode_code"
        },
    )


def first_changed_line(mutated, data):
    """The line of ``mutated`` that holds its first byte unlike ``data``."""
    at = next(
        (k for k, (a, b) in enumerate(zip(mutated, data)) if a != b), len(mutated)
    )
    return mutated[:at].count(b"\n") + 1


def first(pattern, replacement):
    return lambda data: re.sub(pattern, replacement, data, count=1)


class TestReadPaths:
    """Exports off the layout raise, naming the row, in both formats; what
    the layout scan reads agrees with json.loads (JSON) or float() (CSV)."""

    MUTATIONS = {
        "swapped keys": first(
            rb'"q_in": ([^,]*), "q_out": ([^,]*)', rb'"q_out": \2, "q_in": \1'
        ),
        "extra space": first(rb'"work": ', b'"work":  '),
        "escaped token": lambda data: data.replace(
            b'"heat_engine"', b'"heat\\u005fengine"', 1
        ),
        "leading zero": first(rb'"coupling_ratio": 1,', b'"coupling_ratio": 01,'),
        "point without digits": first(
            rb'"coupling_ratio": 1,', b'"coupling_ratio": 1.,'
        ),
        "fraction without integer": first(
            rb'"coupling_ratio": 0.5,', b'"coupling_ratio": .5,'
        ),
        "plus sign": first(rb'"coupling_ratio": 1,', b'"coupling_ratio": +1,'),
        "NaN literal": first(rb'"work": null', b'"work": NaN'),
        "duplicate key": first(rb'("work": [^,]*, )', rb"\1\1"),
        "CRLF": lambda data: data.replace(b"\n", b"\r\n"),
        "trailing newline": lambda data: data + b"\n",
        "trailing bytes": lambda data: data + b"x",
        "long field": first(
            rb'"temp_ratio": 2,', b'"temp_ratio": 2.0000000000000000000000000,'
        ),
        "exponent form": first(rb'"temp_ratio": 2,', b'"temp_ratio": 2E0,'),
        "unknown mode token": first(rb'"heater"', b'"heatex"'),
        "renamed key": first(rb'"q_in": ', b'"q_ix": '),
        "NUL after a value": first(rb'"temp_ratio": 2,', b'"temp_ratio": 2\x00,'),
        "missing separator": first(rb"(refrigerator[^\n]*),\n", rb"\g<1>\n"),
        "trailing comma": lambda data: data.replace(b"}\n]", b"},\n]"),
        "efficiency off an engine row": first(
            rb'("mode": "accelerator", [^}]*"eta_over_carnot": )null',
            rb"\g<1>0.5",
        ),
    }

    @pytest.fixture(scope="class")
    def data(self):
        return export(sweep(edge_grid()), format="json")

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutated_exports_read_like_json_loads(self, data, mutation):
        """A mutated JSON export reads as json.loads reads it when it is
        still export text (``2E0`` is an export number), and else raises
        naming the line that holds the first changed byte: the header's
        message for line 1, the ``]`` line for a change after it."""
        mutated = self.MUTATIONS[mutation](data)
        assert mutated != data
        line = min(first_changed_line(mutated, data), data.count(b"\n"))
        ours = outcome(lambda: read_cells(mutated, format="json"))
        if not isinstance(ours, str):
            assert_same_columns(ours, json_loads_map(mutated))
        elif line == 1:
            assert ours == "JSON header does not match the export contract"
        else:
            text = mutated.split(b"\n")[line - 1].decode()
            assert f"export row at line {line}: {text!r}" in ours
        assert isinstance(ours, str) == (mutation != "exponent form")

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.from_regex(
                rb"-?[0-9]{1,20}(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
            ),
            st.text("0123456789.eE+-nul ", max_size=12).map(str.encode),
            st.sampled_from([b"null", b"-null", b"NaN", b"Infinity", b"-0", b"nan"]),
        )
    )
    def test_any_work_field_reads_like_json_loads(self, data, text):
        """A field is read exactly when it is a JSON number of at most 24
        bytes that float() holds finitely, or null; then it has the bits
        json.loads gives."""
        mutated = first(rb'"work": [^,]*', b'"work": ' + text)(data)
        number = re.fullmatch(rb"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?", text)
        accepted = text == b"null" or bool(
            number and len(text) <= 24 and math.isfinite(float(text))
        )
        ours = outcome(lambda: read_cells(mutated, format="json"))
        if not accepted:
            row = mutated.split(b"\n")[1].decode()
            assert ours == f"malformed export row at line 2: {row!r}"
            return
        assert_same_columns(ours, json_loads_map(mutated))

    # Each CSV mutation changes one row of the export, or its final newline.
    CSV_MUTATIONS = {
        "CRLF": first(rb"(refrigerator,[^\n]*)\n", rb"\g<1>\r\n"),
        "blank line": first(rb"\n(0\.5,1\.5,)", rb"\n\n\g<1>"),
        "no final newline": lambda data: data[:-1],
        "underscore and spaces": first(rb"(,heater,)[^,]*", rb"\g<1> 1_0 "),
        "plus sign": first(rb"(,heater,)[^,]*", rb"\g<1>+1"),
        "Infinity literal": first(rb"(,heater,)[^,]*", rb"\g<1>Infinity"),
        "NaN literal": first(rb"(,heater,)[^,]*", rb"\g<1>NaN"),
        "fraction without integer": first(rb"(,heater,)[^,]*", rb"\g<1>.5"),
        "point without digits": first(rb"(,heater,)[^,]*", rb"\g<1>1."),
        "leading zero": first(rb"(,heater,)[^,]*", rb"\g<1>01"),
        "overflow": first(rb"(,heater,)[^,]*", rb"\g<1>1e999"),
        "negative overflow": first(rb"(,heater,)[^,]*", rb"\g<1>-1e400"),
        "25-byte field": first(
            rb"(,heater,)[^,]*", rb"\g<1>2.00000000000000000000000"
        ),
        "unknown mode token": first(rb",heater,", b",heatex,"),
        "extra field": first(rb"(,heater,[^\n]*)\n", rb"\g<1>,1\n"),
        "efficiency off an engine row": first(
            rb"(,heater,[^\n]*)\n", rb"\g<1>0.5\n"
        ),
    }

    @pytest.fixture(scope="class")
    def csv_data(self):
        return export(sweep(edge_grid()), format="csv")

    @pytest.mark.parametrize("mutation", sorted(CSV_MUTATIONS))
    def test_mutated_csv_exports_name_the_row(self, csv_data, mutation):
        mutated = self.CSV_MUTATIONS[mutation](csv_data)
        assert mutated != csv_data
        line = first_changed_line(mutated, csv_data)
        text = mutated.split(b"\n")[line - 1].decode()
        assert f"export row at line {line}: {text!r}" in refusal(mutated, "csv")

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.from_regex(
                rb"-?[0-9]{1,20}(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
            ),
            st.text("0123456789.eE+-naif_ ", max_size=12).map(str.encode),
            st.sampled_from([b"nan", b"inf", b"-inf", b"-nan", b"-0"]),
        )
    )
    def test_any_csv_work_field_reads_like_float(self, csv_data, text):
        """A field is read exactly when it is a JSON number of at most 24
        bytes that float() holds finitely, or nan, inf or -inf; then it
        has float()'s bits."""
        cells = sweep(edge_grid())
        heater = list(OperationMode).index(OperationMode.HEATER)
        row = int(np.argmax(cells.mode_code == heater))
        mutated = first(rb"(,heater,)[^,]*", rb"\g<1>" + text)(csv_data)
        number = re.fullmatch(rb"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?", text)
        accepted = text in (b"nan", b"inf", b"-inf") or bool(
            number and len(text) <= 24 and math.isfinite(float(text))
        )
        ours = outcome(lambda: read_cells(mutated, format="csv"))
        if not accepted:
            assert f"export row at line {row + 2}: " in ours
            return
        columns = {name: getattr(cells, name) for name in COLUMNS}
        columns["work"] = np.array(cells.work)
        columns["work"][row] = float(text)
        assert_same_columns(ours, ModeMap(**columns))
