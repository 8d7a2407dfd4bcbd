"""Tests for stroke heats, work, mode classification, and efficiency."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spin_stirling import _kernels
from spin_stirling.core import Coupling, ThermalPoint, dimensionless_susceptibility
from spin_stirling.cycle import (
    CycleSpec,
    OperationMode,
    StrokeLedger,
    _evaluate,
    _roundoff_floor,
    assemble_ledger,
    carnot_efficiency,
    classify_mode,
    default_classification_tolerance,
    efficiency,
    heat_isochoric_cooling,
    heat_isochoric_heating,
    heat_isothermal_compression,
    heat_isothermal_expansion,
    total_work,
)
from spin_stirling.errors import (
    CurieRegimeWarning,
    InvariantViolation,
    ModeError,
    ValidationError,
)
from spin_stirling.magnetometry import engine_curve
from spin_stirling.phasemap import Branch, GridAnchor, SweepGrid, sweep

# Reference cycle: the fitted dihydroxo-bridged Cu(II) dimer couplings at
# ambient pressure (-32 K) and 0.84 GPa (-42 K), run between 20 K and 40 K.
REF = dict(j_a=-42.0, j_b=-32.0, t_hot=40.0, t_cold=20.0)
REF_Q_AB = 0.9506567852488601
REF_Q_BC = -2.1507304038845962
REF_Q_CD = -0.8730799855222582
REF_Q_DA = 2.740205684077643
REF_WORK = 0.6670520799196522
REF_Q_IN = 3.690862469326503
REF_Q_OUT = -3.0238103894068544
REF_ETA = 0.18073067893027556


def ref_spec(**overrides):
    params = dict(REF)
    params.update(overrides)
    return CycleSpec.from_values(
        params["j_a"], params["j_b"], params["t_hot"], params["t_cold"]
    )


class TestCycleSpec:
    def test_from_values(self):
        spec = ref_spec()
        assert spec.j_a.j_over_kb == -42.0
        assert spec.j_b.j_over_kb == -32.0
        assert spec.t_hot == 40.0
        assert spec.t_cold == 20.0

    def test_endpoints_order(self):
        a, b, c, d = ref_spec().endpoints()
        assert (a.j_over_kb, a.temperature) == (-42.0, 40.0)
        assert (b.j_over_kb, b.temperature) == (-32.0, 40.0)
        assert (c.j_over_kb, c.temperature) == (-32.0, 20.0)
        assert (d.j_over_kb, d.temperature) == (-42.0, 20.0)

    def test_rejects_inverted_baths(self):
        with pytest.raises(ValidationError):
            CycleSpec.from_values(-42.0, -32.0, 20.0, 40.0)
        with pytest.raises(ValidationError):
            CycleSpec.from_values(-42.0, -32.0, 20.0, 20.0)

    def test_rejects_nonpositive_cold_bath(self):
        with pytest.raises(ValidationError):
            CycleSpec.from_values(-42.0, -32.0, 40.0, 0.0)

    def test_rejects_zero_width_coupling_stroke(self):
        with pytest.raises(ValidationError):
            CycleSpec.from_values(-32.0, -32.0, 40.0, 20.0)


class TestStrokeHeats:
    def test_frozen_reference_values(self):
        spec = ref_spec()
        assert heat_isothermal_expansion(spec) == pytest.approx(REF_Q_AB, abs=1e-13)
        assert heat_isochoric_cooling(spec) == pytest.approx(REF_Q_BC, abs=1e-13)
        assert heat_isothermal_compression(spec) == pytest.approx(REF_Q_CD, abs=1e-13)
        assert heat_isochoric_heating(spec) == pytest.approx(REF_Q_DA, abs=1e-13)

    def test_isothermal_pair_at_equal_temperature_cancels(self):
        # Retracing the coupling path at one temperature is a null process.
        forward = _kernels.isothermal_heat(-42.0, -32.0, 25.0)
        backward = _kernels.isothermal_heat(-32.0, -42.0, 25.0)
        assert forward + backward == 0.0

    def test_isothermal_heat_vanishes_with_stroke_width(self):
        spec = ref_spec(j_a=-32.000000001)
        assert abs(heat_isothermal_expansion(spec)) < 1e-8

    def test_isochoric_heat_vanishes_with_bath_gap(self):
        spec = ref_spec(t_hot=20.000000001)
        assert abs(heat_isochoric_cooling(spec)) < 1e-8

    def test_isochoric_signs_off_the_reference_point(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            j_a = rng.uniform(-200.0, 200.0)
            j_b = rng.uniform(-200.0, 200.0)
            if abs(j_a - j_b) < 1e-6:
                continue
            t_c = rng.uniform(5.0, 40.0)
            t_h = t_c * rng.uniform(1.001, 10.0)
            spec = CycleSpec.from_values(j_a, j_b, t_h, t_c)
            assert heat_isochoric_cooling(spec) < 0.0
            assert heat_isochoric_heating(spec) > 0.0


class TestWorkAndLedger:
    def test_frozen_work(self):
        assert total_work(ref_spec()) == pytest.approx(REF_WORK, abs=1e-13)

    def test_ledger_aggregates(self):
        led = assemble_ledger(ref_spec())
        assert led.work == pytest.approx(REF_WORK, abs=1e-13)
        assert led.q_in == pytest.approx(REF_Q_IN, abs=1e-13)
        assert led.q_out == pytest.approx(REF_Q_OUT, abs=1e-13)
        assert led.q_in == led.q_ab + led.q_da
        assert led.q_out == led.q_bc + led.q_cd

    def test_first_law_closure(self):
        led = assemble_ledger(ref_spec())
        stroke_sum = led.q_ab + led.q_bc + led.q_cd + led.q_da
        assert abs(led.work - stroke_sum) <= 1e-10 * abs(led.work)

    def test_swapping_couplings_negates_every_stroke(self):
        # Running the same loop backwards: isothermal heats negate in
        # place, the two isochoric heats negate and trade roles.
        led = assemble_ledger(ref_spec())
        swapped = assemble_ledger(ref_spec(j_a=REF["j_b"], j_b=REF["j_a"]))
        assert swapped.q_ab == -led.q_ab
        assert swapped.q_cd == -led.q_cd
        assert swapped.q_bc == -led.q_da
        assert swapped.q_da == -led.q_bc
        assert swapped.work == -led.work

    def test_work_vanishes_with_bath_gap(self):
        spec = ref_spec(t_hot=20.0 * (1.0 + 1e-9))
        assert abs(total_work(spec)) < 1e-7

    def test_work_matches_expanded_susceptibility_form(self):
        # Independent route: exponential prefactors times ratios of the
        # shape factor F, written exactly as the isothermal log-ratio
        # expression before any cancellation.
        spec = ref_spec()
        j_a, j_b = REF["j_a"], REF["j_b"]
        t_h, t_c = REF["t_hot"], REF["t_cold"]
        f = lambda j, t: dimensionless_susceptibility(ThermalPoint.from_values(j, t))
        hot = t_h * math.log(
            math.exp((j_a - j_b) / (4.0 * t_h)) * f(j_a, t_h) / f(j_b, t_h)
        )
        cold = t_c * math.log(
            math.exp((j_b - j_a) / (4.0 * t_c)) * f(j_b, t_c) / f(j_a, t_c)
        )
        assert hot + cold == pytest.approx(total_work(spec), rel=1e-10)


class TestClassification:
    @staticmethod
    def ledger(work, q_in, q_out):
        return StrokeLedger(
            q_ab=q_in / 2.0,
            q_bc=q_out / 2.0,
            q_cd=q_out / 2.0,
            q_da=q_in / 2.0,
            work=work,
            q_in=q_in,
            q_out=q_out,
        )

    def test_sign_patterns(self):
        assert classify_mode(self.ledger(1.0, 2.0, -1.0)) is OperationMode.HEAT_ENGINE
        assert (
            classify_mode(self.ledger(-1.0, -2.0, 1.0)) is OperationMode.REFRIGERATOR
        )
        assert classify_mode(self.ledger(-1.0, 2.0, -3.0)) is OperationMode.ACCELERATOR
        assert classify_mode(self.ledger(-2.0, -1.0, -1.0)) is OperationMode.HEATER

    def test_forbidden_patterns(self):
        assert classify_mode(self.ledger(1.0, -1.0, 2.0)) is OperationMode.FORBIDDEN
        assert classify_mode(self.ledger(1.0, 1.0, 2.0)) is OperationMode.FORBIDDEN

    def test_all_zero_ledger_is_carnot_degenerate(self):
        led = self.ledger(0.0, 0.0, 0.0)
        assert classify_mode(led) is OperationMode.CARNOT_DEGENERATE

    def test_tolerance_floor_absorbs_subnormal_scale_noise(self):
        # The default band is relative to the stroke scale with a 1e-30
        # floor, so only exchanges far below that floor collapse to the
        # degenerate point; a tiny but honest sign pattern still counts.
        led = self.ledger(1e-45, 1e-45, -1e-45)
        assert classify_mode(led) is OperationMode.CARNOT_DEGENERATE
        led = self.ledger(1e-20, 2e-20, -1e-20)
        assert classify_mode(led) is OperationMode.HEAT_ENGINE

    def test_explicit_tolerance_override(self):
        led = self.ledger(1.0, 2.0, -1.0)
        assert classify_mode(led, tolerance=10.0) is OperationMode.CARNOT_DEGENERATE

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValidationError):
            classify_mode(self.ledger(1.0, 2.0, -1.0), tolerance=-1.0)

    def test_default_tolerance_scales_with_strokes(self):
        led = assemble_ledger(ref_spec())
        tol = default_classification_tolerance(led)
        assert 0.0 < tol < 1e-10 * abs(led.work)

    def test_reference_cycle_is_a_heat_engine(self):
        assert classify_mode(assemble_ledger(ref_spec())) is OperationMode.HEAT_ENGINE

    def test_reduced_coupling_ratio_yields_refrigerator(self):
        spec = CycleSpec.from_values(-16.0, -32.0, 26.0, 20.0)
        assert classify_mode(assemble_ledger(spec)) is OperationMode.REFRIGERATOR

    def test_mode_tokens_roundtrip(self):
        for mode in OperationMode:
            assert OperationMode.from_token(mode.token) is mode
        with pytest.raises(ValidationError):
            OperationMode.from_token("perpetuum_mobile")


class TestEfficiency:
    def test_frozen_value(self):
        assert efficiency(ref_spec()) == pytest.approx(REF_ETA, abs=1e-13)

    def test_below_carnot_bound(self):
        eta = efficiency(ref_spec())
        assert eta < carnot_efficiency(REF["t_hot"], REF["t_cold"])

    def test_approaches_carnot_in_the_narrow_bath_limit(self):
        t_hot = 20.0 * (1.0 + 1e-4)
        ratio = efficiency(ref_spec(t_hot=t_hot)) / carnot_efficiency(t_hot, 20.0)
        assert abs(ratio - 1.0) < 1e-2

    def test_rejected_outside_engine_mode(self):
        spec = CycleSpec.from_values(-16.0, -32.0, 26.0, 20.0)
        with pytest.raises(ModeError):
            efficiency(spec)

    def test_carnot_efficiency_values(self):
        assert carnot_efficiency(40.0, 20.0) == 0.5
        assert carnot_efficiency(300.0, 100.0) == pytest.approx(2.0 / 3.0)
        assert carnot_efficiency(20.0, 20.0) == 0.0

    def test_carnot_efficiency_validation(self):
        with pytest.raises(ValidationError):
            carnot_efficiency(10.0, 20.0)
        with pytest.raises(ValidationError):
            carnot_efficiency(10.0, 0.0)


class TestCurieRegimeWarning:
    def test_warns_when_a_bath_exceeds_the_coupling_scale(self):
        with pytest.warns(CurieRegimeWarning):
            assemble_ledger(ref_spec())  # 40 K hot bath vs |J_B| = 32 K

    @pytest.mark.parametrize(
        "call",
        [
            lambda: engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, [40.0]),
            lambda: assemble_ledger(ref_spec()),
            lambda: efficiency(ref_spec()),
        ],
        ids=["engine_curve", "assemble_ledger", "efficiency"],
    )
    def test_warning_names_the_callers_file(self, call):
        with pytest.warns(CurieRegimeWarning) as record:
            call()
        assert [warning.filename for warning in record] == [__file__]

    def test_silent_deep_in_the_exchange_regime(self):
        spec = CycleSpec.from_values(-200.0, -100.0, 50.0, 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CurieRegimeWarning)
            assemble_ledger(spec)


class TestRandomizedInvariants:
    def test_first_law_and_signs_hold_broadly(self):
        rng = np.random.default_rng(8)
        modes = set()
        for _ in range(1000):
            j_a = rng.uniform(-200.0, 200.0)
            j_b = rng.uniform(-200.0, 200.0)
            if abs(j_a - j_b) < 1e-6:
                continue
            t_c = rng.uniform(5.0, 40.0)
            t_h = t_c * rng.uniform(1.001, 10.0)
            led = assemble_ledger(CycleSpec.from_values(j_a, j_b, t_h, t_c))
            stroke_sum = led.q_ab + led.q_bc + led.q_cd + led.q_da
            scale = max(abs(led.q_ab), abs(led.q_bc), abs(led.q_cd), abs(led.q_da))
            # Deep in the gapped regime the strokes can be exponentially
            # smaller than the state functions they difference, so the
            # closure bound carries a roundoff floor on the latter.
            floor = 32.0 * math.ulp(1.0) * (
                2.0 * math.log(4.0) * (t_h + t_c) + 1.5 * (abs(j_a) + abs(j_b))
            )
            assert abs(led.work - stroke_sum) <= max(1e-10 * scale, floor)
            modes.add(classify_mode(led))
        assert OperationMode.FORBIDDEN not in modes
        assert OperationMode.HEAT_ENGINE in modes


# The random-cycle domain of the acceptance gate
# (tests/test_acceptance.py::_random_cycles): couplings in [-200, 200]
# excluding zero, cold bath in [5, 400], temperature ratio in (1, 10],
# hot bath at most 400 K.
COUPLINGS = st.floats(min_value=-200.0, max_value=200.0).filter(lambda j: j != 0.0)
TEMP_RATIOS = st.floats(min_value=1.0 + 1e-9, max_value=10.0)


@st.composite
def acceptance_cycles(draw):
    j_a = draw(COUPLINGS)
    j_b = draw(COUPLINGS.filter(lambda j: j != j_a))
    ratio = draw(TEMP_RATIOS)
    t_cold = draw(st.floats(min_value=5.0, max_value=400.0 / ratio))
    return j_a, j_b, t_cold * ratio, t_cold


def fingerprint(ledger, mode, eta):
    """Bit patterns of the ledger and efficiency, plus the mode."""
    values = dataclasses.astuple(ledger) + (math.nan if eta is None else eta,)
    return np.array(values).view(np.int64).tolist(), mode


def single_cycle(spec):
    """The 0-d evaluation of one cycle, checked against the public API."""
    result = next(
        _evaluate(
            spec.j_a.j_over_kb, spec.j_b.j_over_kb, spec.t_hot, spec.t_cold
        ).rows()
    )
    eta = result[2]
    assert fingerprint(assemble_ledger(spec), *result[1:]) == fingerprint(*result)
    if eta is None:
        with pytest.raises(ModeError):
            efficiency(spec)
    else:
        assert efficiency(spec) == eta
    return result


class TestBatchedEvaluator:
    @given(st.lists(acceptance_cycles(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_single_cycles_match_one_batched_call(self, cycles):
        batched = _evaluate(*(np.array(column) for column in zip(*cycles)))
        for values, row in zip(cycles, batched.rows(), strict=True):
            single = single_cycle(CycleSpec.from_values(*values))
            assert fingerprint(*single) == fingerprint(*row)

    @given(
        j_a=COUPLINGS,
        j_b=COUPLINGS,
        # Up to 40 K every temperature ratio keeps the hot bath <= 400 K.
        t_cold=st.floats(min_value=5.0, max_value=40.0),
        ratios=st.lists(TEMP_RATIOS, min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_curve_points_match_single_cycles(self, j_a, j_b, t_cold, ratios):
        assume(j_a != j_b)
        axis = [t_cold * ratio for ratio in ratios]
        points = engine_curve(Coupling(j_a), Coupling(j_b), t_cold, axis)
        for point in points:
            spec = CycleSpec.from_values(j_a, j_b, point.t_hot, t_cold)
            single = single_cycle(spec)
            assert fingerprint(point.ledger, point.mode, point.eta) == fingerprint(
                *single
            )
            assert point.eta_carnot == carnot_efficiency(point.t_hot, t_cold)


class TestDeepGapModes:
    def test_underflowed_strokes_read_as_carnot_degenerate(self):
        # Every stroke heat underflows to ~1e-41 or 0 while the closed-form
        # work keeps a 6e-14 roundoff residue; its sign is not resolved.
        spec = CycleSpec.from_values(200.0, 600.0, 2.0, 1.99)
        ledger = assemble_ledger(spec)
        assert 0.0 < ledger.work < 1e-12
        assert classify_mode(ledger) is OperationMode.FORBIDDEN
        _, mode, eta = next(_evaluate(200.0, 600.0, 2.0, 1.99).rows())
        assert mode is OperationMode.CARNOT_DEGENERATE
        assert eta is None

    def test_overflowing_efficiency_quotient_does_not_warn(self):
        # A 2e-13 work residue over a q_in of 3e-320 lies inside the
        # roundoff floor and reads as Carnot, while W / q_in overflows.
        cycle = (
            1937.446809528672,
            737.5451273186727,
            0.9920205880092144,
            0.9920205879776861,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger, mode, eta = next(_evaluate(*cycle).rows())
        assert 0.0 < ledger.q_in < 1e-300 < ledger.work
        assert mode is OperationMode.CARNOT_DEGENERATE
        assert eta is None

    def test_unresolved_engine_is_demoted_without_a_warning(self):
        # The heat-engine sign pattern with a work about 20 floors above
        # zero, but eta / eta_carnot = 1.00026: the work is not resolved
        # well enough to place the efficiency, and the cycle is demoted.
        cycle = (500.0, 100.0, 10.0000001, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger, mode, eta = next(_evaluate(*cycle).rows())
        assert ledger.work > 10.0 * _roundoff_floor(*cycle)
        assert ledger.q_in > 0.0 > ledger.q_out
        assert ledger.work / ledger.q_in > carnot_efficiency(*cycle[2:])
        assert mode is OperationMode.ACCELERATOR
        assert eta is None

    def test_roundoff_floor_stays_finite_at_the_largest_temperatures(self):
        # The summed operand terms overflow above about 6.5e307 K; the floor
        # must not, or the first-law check would accept any closure there.
        floor = _roundoff_floor(-42.0, -32.0, 1e308, 20.0)
        assert math.isfinite(floor) and floor > 0.0
        floors = _roundoff_floor(-42.0, -32.0, np.array([21.0, 1e308]), 20.0)
        assert np.isfinite(floors).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            points = engine_curve(Coupling(-42.0), Coupling(-32.0), 20.0, [21.0, 1e308])
        assert [p.t_hot for p in points] == [21.0, 1e308]

    @given(
        j_a=st.floats(min_value=-1e6, max_value=1e6),
        j_b=st.floats(min_value=-1e6, max_value=1e6),
        t_cold=st.floats(min_value=1e-3, max_value=1e300),
        t_ratio=st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_roundoff_floor_is_32_ulp_of_the_operand_sum(
        self, j_a, j_b, t_cold, t_ratio
    ):
        # Where the operand sum is finite, scaling the constants by 2**-47
        # instead of the sum gives the same bits.
        t_hot = t_cold * t_ratio
        operand_sum = 2.0 * math.log(4.0) * (t_hot + t_cold) + 1.5 * (
            abs(j_a) + abs(j_b)
        )
        assume(math.isfinite(operand_sum))
        floor = _roundoff_floor(j_a, j_b, t_hot, t_cold)
        assert floor == 32.0 * math.ulp(1.0) * operand_sum

    @given(
        j_a=st.floats(min_value=-5000.0, max_value=5000.0),
        j_b=st.floats(min_value=-5000.0, max_value=5000.0),
        t_cold=st.floats(min_value=0.05, max_value=300.0),
        gap=st.one_of(
            st.sampled_from([1e-9, 1e-6]), st.floats(min_value=1e-9, max_value=9.0)
        ),
    )
    @example(j_a=200.0, j_b=600.0, t_cold=1.99, gap=1e-6)
    @settings(max_examples=300, deadline=None)
    def test_no_mode_reads_a_sign_below_the_roundoff_floor(
        self, j_a, j_b, t_cold, gap
    ):
        assume(j_a != j_b)
        t_hot = t_cold * (1.0 + gap)
        ledger, mode, _ = next(_evaluate(j_a, j_b, t_hot, t_cold).rows())
        floor = _roundoff_floor(j_a, j_b, t_hot, t_cold)
        if max(abs(ledger.work), abs(ledger.q_in), abs(ledger.q_out)) <= floor:
            assert mode is OperationMode.CARNOT_DEGENERATE
        if mode is OperationMode.HEAT_ENGINE:
            assert ledger.work > floor
        assert mode is not OperationMode.FORBIDDEN


def mode_map():
    """A 3x3 map of heat-engine cells and cells in other modes."""
    return sweep(
        SweepGrid(
            coupling_ratio_axis=(-0.5, 0.5, 1.3125),
            temp_ratio_axis=(1.2, 2.0, 2.5),
            anchor=GridAnchor(j_b=Coupling(-32.0), t_cold=20.0),
            branch=Branch.B_NEGATIVE,
        )
    )


def mixed_curve():
    """A curve of one heat-engine point, then five accelerators."""
    axis = np.linspace(5.05, 335.0, 6)
    return engine_curve(Coupling(10.0), Coupling(-50.0), 5.0, axis)


class TestColumnarRows:
    """The sequence contract that mode maps and engine curves share."""

    @pytest.fixture(params=[mode_map, mixed_curve], ids=["map", "curve"])
    def rows(self, request):
        rows = request.param()
        modes = {record.mode for record in rows}
        assert OperationMode.HEAT_ENGINE in modes and len(modes) > 1
        return rows

    def test_indexing_matches_iteration(self, rows):
        records = list(rows)
        assert len(rows) == len(records) > 1
        assert [rows[k] for k in range(len(rows))] == records
        # A record carries an efficiency exactly in heat-engine mode.
        for record in records:
            engine = record.mode is OperationMode.HEAT_ENGINE
            assert (getattr(record, rows._eta) is not None) == engine
        assert rows[-1] == records[-1] and rows[-len(rows)] == records[0]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[index]

    def test_slices_are_the_same_type_over_the_same_rows(self, rows):
        for part in (slice(1, 4), slice(None, None, -2), slice(4, 1), slice(-2, None)):
            assert type(rows[part]) is type(rows)
            assert rows[part] == list(rows)[part]

    def test_compares_as_its_record_list(self, rows):
        assert rows == list(rows)
        assert list(rows) == rows
        assert rows != list(rows)[:-1]
        assert list(rows)[:-1] != rows
        assert rows != tuple(rows)
        # NaN efficiencies off heat-engine rows do not count.
        assert rows == dataclasses.replace(rows)
        assert rows != rows[:-1]
        first = dataclasses.fields(rows)[0].name
        assert rows != dataclasses.replace(rows, **{first: getattr(rows, first) + 1.0})

    def test_nan_energies_compare_unequal(self, rows):
        def nan_work():
            return dataclasses.replace(rows, work=np.full(len(rows), math.nan))

        assert nan_work() != nan_work()
        assert list(nan_work()) != list(nan_work())

    def test_columns_are_read_only(self, rows):
        names = [field.name for field in dataclasses.fields(rows)]
        for part in (rows, rows[1:]):
            for name in names:
                with pytest.raises(ValueError):
                    getattr(part, name)[0] = 1
        # Built over a caller's arrays, it leaves them writable.
        columns = {name: np.array(getattr(rows, name)) for name in names}
        type(rows)(**columns)
        for column in columns.values():
            column[0] = column[0]

    def test_replace_refuses_a_ragged_column(self, rows):
        first = dataclasses.fields(rows)[0].name
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(rows, work=rows.work[:-1])
        n = len(rows)
        assert str(err.value) == (
            f"work must be a flat column shaped like {first} ({n},), got ({n - 1},)"
        )
