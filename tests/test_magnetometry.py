"""Tests for susceptibility ingestion, Bleaney-Bowers fitting, and the
pressure-axis helpers built on top of the fit."""

import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from importlib import resources

import spin_stirling.magnetometry as mag
from spin_stirling import _format, _kernels
from spin_stirling.constants import CURIE_CONSTANT_EMU_K_PER_MOL, KB_EV_PER_K
from spin_stirling.core import Coupling
from spin_stirling.cycle import CycleSpec, OperationMode
from spin_stirling.errors import DataFormatError, ValidationError
from spin_stirling.magnetometry import (
    ANGLE_INTERCEPT_K,
    ANGLE_SLOPE_K_PER_DEG,
    BridgingAngle,
    DEFAULT_G_FACTOR,
    EngineCurve,
    FitResult,
    FixG,
    FreeG,
    SusceptibilityDataset,
    bleaney_bowers_chi,
    bleaney_bowers_jacobian,
    coupling_from_angle,
    engine_curve,
    engine_curve_csv,
    fit_bleaney_bowers,
    fit_report_json,
    ingest_csv,
)

CHI_M32_T20_G21 = 0.05166959896118547

# Fixed-g fits of the two bundled digitized datasets, frozen.
AMBIENT_FIT_J = -32.13087200947598
PRESSURE_FIT_J = -41.858121157663994


def reference_curve_csv(points):
    """The engine-curve CSV built row by row with Python's ``%.17g``."""
    lines = [b"T_h_K,Q_AB_eV,Q_BC_eV,Q_CD_eV,Q_DA_eV,W_eV,eta,eta_carnot,mode"]
    for point in points:
        ledger = point.ledger
        heats = (ledger.q_ab, ledger.q_bc, ledger.q_cd, ledger.q_da, ledger.work)
        values = [point.t_hot, *(heat * KB_EV_PER_K for heat in heats)]
        fields = [b"%.17g" % value for value in values]
        fields.append(b"" if point.eta is None else b"%.17g" % point.eta)
        fields += [b"%.17g" % point.eta_carnot, point.mode.token.encode()]
        lines.append(b",".join(fields))
    return b"\n".join(lines) + b"\n"


def synthetic_csv(j, g, temps=None, header="T_K,chi_emu_mol", extra_lines=()):
    temps = np.linspace(20.0, 350.0, 67) if temps is None else np.asarray(temps)
    chi = bleaney_bowers_chi(temps, j, g)
    lines = list(extra_lines) + [header]
    lines += ["%.17g,%.17g" % (t, c) for t, c in zip(temps, chi)]
    return "\n".join(lines) + "\n"


def bundled(name):
    return resources.files("spin_stirling").joinpath("data", name).read_bytes()


BUNDLED_DATASETS = ("cu2_dimer_ambient.csv", "cu2_dimer_0p84gpa.csv")


def one_shot_scan_sse(temperatures, chis, policy):
    """The start scan's sum-of-squares table evaluated as one dense array.

    The free-g rows whose Gram sum is below the smallest normal float
    score the sum of chi**2, the zero-basis rule; every other row is the
    closed form as written.
    """
    grid = np.linspace(
        -mag.FIT_SCAN_HALF_WIDTH_K, mag.FIT_SCAN_HALF_WIDTH_K, mag.FIT_SCAN_POINTS
    )
    shape = _kernels.susceptibility_shape(
        grid[:, np.newaxis], temperatures[np.newaxis, :]
    )
    basis = 2.0 * CURIE_CONSTANT_EMU_K_PER_MOL * shape / temperatures[np.newaxis, :]
    if isinstance(policy, FixG):
        model = policy.value**2 * basis
        return grid, ((model - chis[np.newaxis, :]) ** 2).sum(axis=1)
    cross = (basis * chis[np.newaxis, :]).sum(axis=1)
    gram = (basis * basis).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (chis**2).sum() - cross**2 / gram
    return grid, np.where(gram < np.finfo(float).tiny, (chis**2).sum(), sse)


class TestIngestion:
    def test_parses_a_minimal_file(self):
        ds = ingest_csv("T_K,chi_emu_mol\n10,0.01\n20,0.02\n30,0.03\n40,0.04\n50,0.05\n")
        assert len(ds.points) == 5
        assert ds.points[0] == (10.0, 0.01)
        assert ds.pressure_gpa is None
        assert ds.label == ""

    def test_accepts_bytes_and_file_objects(self):
        text = synthetic_csv(-32.0, 2.1)
        from_str = ingest_csv(text)
        from_bytes = ingest_csv(text.encode("ascii"))
        from_handle = ingest_csv(io.StringIO(text))
        assert from_str == from_bytes == from_handle

    def test_reads_metadata_comments(self):
        text = synthetic_csv(
            -32.0,
            2.1,
            extra_lines=["# pressure_GPa: 0.84", "# label: diamond anvil"],
        )
        ds = ingest_csv(text)
        assert ds.pressure_gpa == 0.84
        assert ds.label == "diamond anvil"

    def test_sorts_rows_by_temperature(self):
        ds = ingest_csv(
            "T_K,chi_emu_mol\n50,0.05\n10,0.01\n30,0.03\n20,0.02\n40,0.04\n"
        )
        assert [t for t, _ in ds.points] == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_ignores_extra_columns_and_spacing(self):
        ds = ingest_csv(
            "sample,T_K,chi_emu_mol\n"
            "a, 10 , 0.01\na,20,0.02\na,30,0.03\na,40,0.04\na,50,0.05\n"
        )
        assert ds.points[0] == (10.0, 0.01)

    def test_malformed_row_reports_its_line_number(self):
        text = "T_K,chi_emu_mol\n10,0.01\n20,oops\n30,0.03\n40,0.04\n50,0.05\n"
        with pytest.raises(DataFormatError) as err:
            ingest_csv(text)
        assert "line 3" in str(err.value)

    def test_duplicate_temperatures_are_rejected_with_both_lines(self):
        text = "T_K,chi_emu_mol\n10,0.01\n20,0.02\n20,0.021\n40,0.04\n50,0.05\n"
        with pytest.raises(DataFormatError) as err:
            ingest_csv(text)
        message = str(err.value)
        assert "20" in message and "line" in message

    def test_missing_required_columns(self):
        with pytest.raises(DataFormatError):
            ingest_csv("temperature,chi\n10,0.01\n20,0.02\n30,0.03\n40,0.04\n50,0.05\n")

    def test_empty_and_header_only_files(self):
        with pytest.raises(DataFormatError):
            ingest_csv("")
        with pytest.raises(DataFormatError):
            ingest_csv("T_K,chi_emu_mol\n")

    def test_too_few_points(self):
        with pytest.raises(DataFormatError, match="dataset too small: 4 points"):
            ingest_csv("T_K,chi_emu_mol\n10,0.01\n20,0.02\n30,0.03\n40,0.04\n")
        # The dataset counts the points, after the rows are checked.
        with pytest.raises(DataFormatError, match="duplicate temperature 20.0 K"):
            ingest_csv("T_K,chi_emu_mol\n10,0.01\n20,0.02\n20,0.03\n")

    def test_nonpositive_values_are_rejected(self):
        with pytest.raises(DataFormatError):
            ingest_csv("T_K,chi_emu_mol\n-1,0.01\n20,0.02\n30,0.03\n40,0.04\n50,0.05\n")
        with pytest.raises(DataFormatError):
            ingest_csv("T_K,chi_emu_mol\n10,-0.01\n20,0.02\n30,0.03\n40,0.04\n50,0.05\n")

    def test_bytes_that_are_not_utf8_are_a_data_error(self):
        bad = b"T_K,chi_emu_mol\n\xff,1\n"
        text_handle = io.TextIOWrapper(io.BytesIO(bad), encoding="utf-8")
        for stream in (bad, io.BytesIO(bad), text_handle):
            with pytest.raises(DataFormatError, match="not UTF-8: byte 16"):
                ingest_csv(stream)

    def test_bundled_datasets_carry_their_pressure_metadata(self):
        ambient = ingest_csv(bundled("cu2_dimer_ambient.csv"))
        pressurized = ingest_csv(bundled("cu2_dimer_0p84gpa.csv"))
        assert ambient.pressure_gpa == 0.0
        assert ambient.label == "ambient"
        assert pressurized.pressure_gpa == 0.84
        assert pressurized.label == "0.84 GPa"
        assert len(ambient.points) == 67


class TestModel:
    def test_frozen_value(self):
        chi = float(bleaney_bowers_chi(np.asarray(20.0), -32.0, 2.1))
        assert chi == pytest.approx(CHI_M32_T20_G21, abs=1e-17)

    def test_jacobian_matches_finite_differences(self):
        temps = np.linspace(10.0, 350.0, 31)
        rng = np.random.default_rng(9)
        for _ in range(10):
            j = rng.uniform(-200.0, 200.0)
            g = rng.uniform(1.7, 2.5)
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
            scale_j = np.max(np.abs(jac[:, 0])) + 1e-300
            scale_g = np.max(np.abs(jac[:, 1])) + 1e-300
            assert np.max(np.abs(jac[:, 0] - fd_j)) / scale_j < 1e-6
            assert np.max(np.abs(jac[:, 1] - fd_g)) / scale_g < 1e-6


class TestDatasetValidation:
    def test_requires_five_points(self):
        with pytest.raises(DataFormatError):
            SusceptibilityDataset(
                points=((10.0, 0.01), (20.0, 0.02)), pressure_gpa=None, label=None
            )

    @pytest.mark.parametrize("pressure", [math.nan, math.inf, -math.inf])
    def test_requires_a_finite_pressure(self, pressure):
        points = ((10.0, 0.01), (20.0, 0.02), (30.0, 0.03), (40.0, 0.04), (50.0, 0.05))
        # The fit report writes the pressure as a JSON number.
        with pytest.raises(DataFormatError, match="pressure_GPa must be finite"):
            SusceptibilityDataset(points=points, pressure_gpa=pressure)

    def test_requires_strictly_increasing_temperatures(self):
        points = ((10.0, 0.01), (10.0, 0.02), (30.0, 0.03), (40.0, 0.04), (50.0, 0.05))
        with pytest.raises(DataFormatError):
            SusceptibilityDataset(points=points, pressure_gpa=None, label=None)


class TestFitting:
    def test_noiseless_roundtrip_with_free_g(self):
        for j_true, g_true in ((-27.3, 2.05), (51.8, 2.2)):
            ds = ingest_csv(synthetic_csv(j_true, g_true))
            res = fit_bleaney_bowers(ds, FreeG())
            assert res.converged
            assert abs(res.j_over_kb - j_true) <= 1e-6 * abs(j_true)
            assert abs(res.g - g_true) <= 1e-6 * g_true

    def test_noiseless_roundtrip_with_fixed_g(self):
        ds = ingest_csv(synthetic_csv(-42.0, 2.1))
        res = fit_bleaney_bowers(ds, FixG(2.1))
        assert res.converged
        assert res.g == 2.1
        assert abs(res.j_over_kb + 42.0) <= 1e-6 * 42.0

    def test_default_policy_fixes_g_at_the_organometallic_value(self):
        ds = ingest_csv(synthetic_csv(-42.0, DEFAULT_G_FACTOR))
        res = fit_bleaney_bowers(ds)
        assert res.g == DEFAULT_G_FACTOR

    def test_fit_is_deterministic(self):
        ds = ingest_csv(bundled("cu2_dimer_ambient.csv"))
        first = fit_bleaney_bowers(ds, FixG(2.1))
        second = fit_bleaney_bowers(ds, FixG(2.1))
        assert first == second

    def test_overall_scale_does_not_shift_the_coupling(self):
        # chi -> c * chi is absorbed entirely by g when g floats.
        base = ingest_csv(synthetic_csv(-32.0, 2.1))
        scaled = SusceptibilityDataset(
            points=tuple((t, 3.7 * chi) for t, chi in base.points),
            pressure_gpa=None,
            label=None,
        )
        res_base = fit_bleaney_bowers(base, FreeG())
        res_scaled = fit_bleaney_bowers(scaled, FreeG())
        assert abs(res_scaled.j_over_kb - res_base.j_over_kb) <= 1e-6 * 32.0
        assert res_scaled.g == pytest.approx(res_base.g * math.sqrt(3.7), rel=1e-6)

    def test_digitized_datasets_recover_the_published_couplings(self):
        ambient = fit_bleaney_bowers(ingest_csv(bundled("cu2_dimer_ambient.csv")))
        pressurized = fit_bleaney_bowers(
            ingest_csv(bundled("cu2_dimer_0p84gpa.csv"))
        )
        assert ambient.converged and pressurized.converged
        assert ambient.j_over_kb == pytest.approx(AMBIENT_FIT_J, abs=1e-9)
        assert pressurized.j_over_kb == pytest.approx(PRESSURE_FIT_J, abs=1e-9)
        assert abs(ambient.j_over_kb + 32.0) < 0.1 * 32.0
        assert abs(pressurized.j_over_kb + 42.0) < 0.1 * 42.0

    def test_policy_validation(self):
        ds = ingest_csv(synthetic_csv(-32.0, 2.1))
        with pytest.raises(ValidationError):
            fit_bleaney_bowers(ds, FixG(0.0))
        with pytest.raises(ValidationError):
            fit_bleaney_bowers(ds, FreeG(-1.0))
        with pytest.raises(ValidationError):
            fit_bleaney_bowers(ds, 2.1)

    def test_iteration_budget_exhaustion_is_reported_not_raised(self, monkeypatch):
        import spin_stirling.magnetometry as mag

        monkeypatch.setattr(mag, "FIT_MAX_ITERATIONS", 0)
        ds = ingest_csv(synthetic_csv(-32.0, 2.1))
        res = fit_bleaney_bowers(ds, FixG(1.2))
        assert not res.converged
        assert res.iterations == 0
        assert math.isfinite(res.residual_rms)

    def test_report_json_layout(self):
        ds = ingest_csv(bundled("cu2_dimer_ambient.csv"))
        res = fit_bleaney_bowers(ds, FixG(2.1))
        blob = fit_report_json(res, ds)
        parsed = json.loads(blob)
        assert list(parsed.keys()) == [
            "j_over_kb_K",
            "g",
            "residual_rms",
            "converged",
            "iterations",
            "pressure_GPa",
            "label",
        ]
        assert parsed["j_over_kb_K"] == pytest.approx(AMBIENT_FIT_J, abs=1e-9)
        assert parsed["g"] == 2.1
        assert parsed["converged"] is True
        assert parsed["pressure_GPa"] == 0.0
        assert parsed["label"] == "ambient"

    def test_report_json_null_pressure(self):
        ds = ingest_csv(synthetic_csv(-32.0, 2.1))
        res = fit_bleaney_bowers(ds, FixG(2.1))
        parsed = json.loads(fit_report_json(res, ds))
        assert parsed["pressure_GPa"] is None


class TestStartScan:
    @staticmethod
    def recorded_scan(monkeypatch, temperatures, chis, policy):
        """Run the scan, returning its start J and the blocks it evaluated."""
        blocks = []

        def recording(couplings, *args):
            sse = scan_sse(couplings, *args)
            blocks.append((couplings, sse))
            return sse

        scan_sse = mag._scan_sse
        monkeypatch.setattr(mag, "_scan_sse", recording)
        return mag._scan_initial_coupling(temperatures, chis, policy), blocks

    @given(
        n_points=st.integers(min_value=5, max_value=9000),
        t_low=st.floats(min_value=0.05, max_value=50.0),
        t_span=st.floats(min_value=0.5, max_value=400.0),
        j=st.floats(min_value=-300.0, max_value=300.0),
        g=st.floats(min_value=1.8, max_value=2.4),
        noise_seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
        free_g=st.booleans(),
        scan_points=st.integers(min_value=2, max_value=mag.FIT_SCAN_POINTS),
    )
    @example(8193, 0.1, 0.5, -0.5, 2.05, None, True, 9)
    @example(9000, 20.0, 330.0, -32.0, 2.1, 3, False, 5)
    @example(67, 20.0, 330.0, -32.0, 2.1, 7, True, mag.FIT_SCAN_POINTS)
    @settings(max_examples=60, deadline=None)
    def test_blocked_table_equals_the_one_shot_table_bit_for_bit(
        self, n_points, t_low, t_span, j, g, noise_seed, free_g, scan_points
    ):
        # Keep the one-shot oracle's dense table near 2 MB.
        scan_points = min(scan_points, max(2, 250_000 // n_points))
        temperatures = np.linspace(t_low, t_low + t_span, n_points)
        chis = bleaney_bowers_chi(temperatures, j, g)
        if noise_seed is not None:
            rng = np.random.default_rng(noise_seed)
            chis = chis * (1.0 + 0.01 * rng.standard_normal(n_points))
        policy = FreeG() if free_g else FixG(g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mag, "FIT_SCAN_POINTS", scan_points)
            grid, expected = one_shot_scan_sse(temperatures, chis, policy)
            start, blocks = self.recorded_scan(patch, temperatures, chis, policy)

        rows = max(1, mag._SCAN_BLOCK_ELEMENTS // n_points)
        assert all(len(couplings) <= rows for couplings, _ in blocks)
        assert len(blocks) == -(-scan_points // rows)
        couplings = np.concatenate([c for c, _ in blocks])
        sse = np.concatenate([s for _, s in blocks])
        assert np.array_equal(couplings.view(np.int64), grid.view(np.int64))
        assert np.array_equal(sse.view(np.int64), expected.view(np.int64))
        assert start == grid[int(np.argmin(expected))]

    @pytest.mark.parametrize("name", BUNDLED_DATASETS)
    @pytest.mark.parametrize("policy", [FixG(), FreeG()], ids=["fix_g", "free_g"])
    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_block_size_does_not_change_the_fit(
        self, monkeypatch, name, policy, block_rows
    ):
        ds = ingest_csv(bundled(name))
        grid, expected = one_shot_scan_sse(ds.temperatures, ds.chis, policy)
        report = fit_report_json(fit_bleaney_bowers(ds, policy), ds)
        monkeypatch.setattr(
            mag, "_SCAN_BLOCK_ELEMENTS", block_rows * len(ds.points)
        )
        start, blocks = self.recorded_scan(
            monkeypatch, ds.temperatures, ds.chis, policy
        )
        assert start == grid[int(np.argmin(expected))]
        sizes = [len(couplings) for couplings, _ in blocks]
        assert sizes[:-1] == [block_rows] * (len(blocks) - 1)
        assert 1 <= sizes[-1] <= block_rows
        assert fit_report_json(fit_bleaney_bowers(ds, policy), ds) == report

    @pytest.mark.parametrize("j_true", [-0.5, 0.3, -2.0])
    def test_free_g_recovers_a_sub_kelvin_dataset(self, j_true):
        # Most scan couplings leave every basis value of these sub-kelvin
        # points at or below 1e-162, so their Gram sum underflows to zero.
        temps = np.linspace(0.1, 0.6, 20)
        chis = bleaney_bowers_chi(temps, j_true, 2.05)
        ds = SusceptibilityDataset(points=tuple(zip(temps.tolist(), chis.tolist())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_bleaney_bowers(ds, FreeG())
        assert res.converged
        assert res.iterations > 0
        assert res.j_over_kb == pytest.approx(j_true, rel=1e-9)
        assert res.g == pytest.approx(2.05, rel=1e-9)


class TestBridgingAngle:
    def test_linear_correlation_values(self):
        assert coupling_from_angle(BridgingAngle(98.0)).j_over_kb == 1.0
        assert coupling_from_angle(BridgingAngle(97.5)).j_over_kb == -52.0

    def test_crossing_angle_gives_zero_coupling(self):
        theta_star = -ANGLE_INTERCEPT_K / ANGLE_SLOPE_K_PER_DEG
        j = coupling_from_angle(BridgingAngle(theta_star)).j_over_kb
        assert abs(j) < 1e-9

    def test_default_sanity_window(self):
        with pytest.raises(ValidationError):
            BridgingAngle(70.0)
        with pytest.raises(ValidationError):
            BridgingAngle(130.0)

    def test_custom_window(self):
        angle = BridgingAngle(75.0, window=(70.0, 130.0))
        assert coupling_from_angle(angle).j_over_kb == pytest.approx(
            ANGLE_SLOPE_K_PER_DEG * 75.0 + ANGLE_INTERCEPT_K
        )

    def test_rejects_inverted_window(self):
        with pytest.raises(ValidationError):
            BridgingAngle(98.0, window=(120.0, 80.0))


class TestEngineCurve:
    def test_pressure_pair_runs_as_an_engine_everywhere(self):
        axis = np.arange(21.0, 351.0, 10.0)
        points = engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, axis)
        assert len(points) == len(axis)
        for pt in points:
            assert pt.mode is OperationMode.HEAT_ENGINE
            assert pt.eta is not None
            assert 0.0 < pt.eta < pt.eta_carnot

    def test_efficiency_follows_carnot_near_the_degenerate_point(self):
        (pt,) = engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, [20.02])
        assert pt.eta / pt.eta_carnot > 0.99

    def test_non_engine_points_carry_no_efficiency(self):
        (pt,) = engine_curve(Coupling(-16.0), Coupling(-32.0), 20.0, [26.0])
        assert pt.mode is OperationMode.REFRIGERATOR
        assert pt.eta is None

    def test_rejects_hot_axis_at_or_below_the_cold_bath(self):
        with pytest.raises(ValidationError):
            engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, [19.0])
        with pytest.raises(ValidationError):
            engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 20.0, 19.0])
    def test_first_invalid_point_raises_its_spec_error(self, bad):
        j_a, j_b = Coupling(-42.0), Coupling(-32.0)
        with pytest.raises(ValidationError) as expected:
            CycleSpec(j_a, j_b, bad, 20.0)
        axis = [25.0, 30.0, bad, math.nan, 10.0, 40.0]
        with pytest.raises(ValidationError) as raised:
            engine_curve(j_a, j_b, 20.0, axis)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("t_cold", [math.nan, math.inf, 0.0, -5.0])
    def test_invalid_cold_bath_raises_the_spec_error(self, t_cold):
        j_a, j_b = Coupling(-42.0), Coupling(-32.0)
        with pytest.raises(ValidationError) as expected:
            CycleSpec(j_a, j_b, 25.0, t_cold)
        with pytest.raises(ValidationError) as raised:
            engine_curve(j_a, j_b, t_cold, [25.0, 30.0])
        assert str(raised.value) == str(expected.value)

    def test_rejects_a_zero_width_cycle_before_later_bad_points(self):
        j = Coupling(-32.0)
        with pytest.raises(ValidationError) as expected:
            CycleSpec(j, j, 25.0, 20.0)
        with pytest.raises(ValidationError) as raised:
            engine_curve(j, j, 20.0, [25.0, math.nan])
        assert str(raised.value) == str(expected.value)
        assert "zero-width" in str(raised.value)

    def test_csv_layout(self):
        points = engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, [20.02, 26.0])
        text = engine_curve_csv(points).decode("ascii")
        lines = text.splitlines()
        assert lines[0] == "T_h_K,Q_AB_eV,Q_BC_eV,Q_CD_eV,Q_DA_eV,W_eV,eta,eta_carnot,mode"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "20.02"
        assert first[-1] == "heat_engine"
        # Heats are reported in eV, so they sit far below the kelvin scale.
        assert abs(float(first[1])) < 1e-3

    def test_csv_blanks_exactly_the_missing_efficiencies(self):
        engine = engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, [26.0])
        fridge = engine_curve(Coupling(-16.0), Coupling(-32.0), 20.0, [26.0])
        for curve in (engine, fridge, self.mixed_curve()):
            lines = engine_curve_csv(curve).decode().splitlines()[1:]
            rows = [line.split(",") for line in lines]
            assert [row[6] for row in rows] == [
                "%.17g" % point.eta if point.mode is OperationMode.HEAT_ENGINE else ""
                for point in curve
            ]
            assert [row[8] for row in rows] == [point.mode.token for point in curve]
        assert [point.mode for point in (*engine, *fridge)] == [
            OperationMode.HEAT_ENGINE, OperationMode.REFRIGERATOR
        ]
        # The points that once wrote "" and "nan" are no curve: a heat
        # engine without an efficiency, a refrigerator with one.
        with pytest.raises(ValidationError, match="heat-engine points require"):
            dataclasses.replace(engine, eta=np.array([math.nan]))
        with pytest.raises(ValidationError, match="absent for mode 'refrigerator'"):
            dataclasses.replace(fridge, eta=engine.eta)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                lambda c: {"work": c.work[:-1]},
                "work must be a flat column shaped like t_hot (6,), got (5,)",
            ),
            (
                lambda c: {"eta_carnot": c.eta_carnot[:, np.newaxis]},
                "eta_carnot must be a flat column shaped like t_hot (6,), got (6, 1)",
            ),
            (
                lambda c: {"code": np.full(6, 9, np.int8)},
                "code entries must index OperationMode",
            ),
            (
                lambda c: {"eta": np.full(6, math.nan)},
                "heat-engine points require eta / eta_carnot in (0, 1), "
                "got nan at point 0",
            ),
            (
                lambda c: {"eta": np.where(np.arange(6) == 0, c.eta_carnot, math.nan)},
                "heat-engine points require eta / eta_carnot in (0, 1), "
                "got 1.0 at point 0",
            ),
            (
                lambda c: {"eta": np.where(np.arange(6) == 2, 0.5, c.eta)},
                "eta must be absent for mode 'accelerator', got 0.5 at point 2",
            ),
        ],
        ids=["ragged", "2-D", "mode code 9", "engine without eta", "eta at Carnot",
             "eta off engine"],
    )
    def test_columns_that_are_no_curve_are_refused(self, changes, message):
        curve = self.mixed_curve()
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(curve, **changes(curve))
        assert str(err.value) == message

    # Small-mix's curve requests: couplings in +-200 K, a cold bath of
    # 5 to 50 K and up to 330 points from just above it.
    @given(
        j_a=st.floats(min_value=-200.0, max_value=200.0),
        j_b=st.floats(min_value=-200.0, max_value=200.0),
        t_cold=st.floats(min_value=5.0, max_value=50.0),
        start=st.floats(min_value=1.01, max_value=1.5),
        span=st.floats(min_value=50.0, max_value=350.0),
        steps=st.integers(min_value=1, max_value=330),
    )
    @settings(max_examples=40, deadline=None)
    @example(j_a=10.0, j_b=-50.0, t_cold=5.0, start=1.01, span=329.95, steps=60)
    def test_column_writer_matches_the_point_writer(
        self, j_a, j_b, t_cold, start, span, steps
    ):
        assume(j_a != j_b)
        j_a, j_b = Coupling(j_a), Coupling(j_b)
        axis = np.linspace(t_cold * start, t_cold * start + span, steps).tolist()
        curve = engine_curve(j_a, j_b, t_cold, axis)
        expected = reference_curve_csv(list(curve))
        for block_rows in (1, 7, _format._BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_format, "_BLOCK_ROWS", block_rows)
                assert engine_curve_csv(curve) == expected
        per_point = np.array([1.0 - t_cold / t for t in axis])
        assert np.array_equal(curve.eta_carnot.view(np.int64), per_point.view(np.int64))

    def test_block_pairs_write_the_serial_bytes(self, monkeypatch):
        axis = np.linspace(21.0, 400.0, 3 * _format._BLOCK_ROWS + 5).tolist()
        curve = engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, axis)
        # A block longer than the curve holds it all: the serial bytes.
        with monkeypatch.context() as patch:
            patch.setattr(_format, "_BLOCK_ROWS", len(curve) + 1)
            serial = engine_curve_csv(curve)
        assert engine_curve_csv(curve) == serial

    @staticmethod
    def mixed_curve():
        """A curve of one heat-engine point, then five accelerators."""
        axis = np.linspace(5.05, 335.0, 6)
        curve = engine_curve(Coupling(10.0), Coupling(-50.0), 5.0, axis)
        assert isinstance(curve, EngineCurve)
        return curve

    def test_indexing_builds_no_curve(self, monkeypatch):
        curve = self.mixed_curve()
        points = list(curve)
        built = []
        post_init = EngineCurve.__post_init__

        def counted(self):
            post_init(self)
            built.append(len(self))

        monkeypatch.setattr(EngineCurve, "__post_init__", counted)
        assert (curve[2], curve[-1]) == (points[2], points[-1])
        assert built == []
        assert curve[1:] == points[1:]
        assert built == [5]

    def test_curve_writes_the_bytes_of_its_points(self):
        curve = self.mixed_curve()
        assert engine_curve_csv(curve) == reference_curve_csv(list(curve))
        assert engine_curve_csv(curve[1:3]) == reference_curve_csv(list(curve)[1:3])

    def test_csv_refuses_point_lists(self):
        with pytest.raises(ValidationError, match="requires an EngineCurve, got list"):
            engine_curve_csv(list(self.mixed_curve()))

    def test_csv_rejects_empty_curves(self):
        with pytest.raises(ValidationError):
            engine_curve_csv([])
        with pytest.raises(ValidationError):
            engine_curve_csv(self.mixed_curve()[:0])
