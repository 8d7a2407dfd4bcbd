"""Unit tests for the closed-form state functions and the Gibbs oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spin_stirling.constants import (
    CURIE_CONSTANT_EMU_K_PER_MOL,
    DEFAULT_COUPLING_CAP_K,
    ORACLE_EXPONENT_CAP,
)
from spin_stirling.core import (
    Coupling,
    PopulationVector,
    ThermalPoint,
    dimensionless_susceptibility,
    entropy,
    gibbs_oracle,
    internal_energy,
    molar_susceptibility,
    populations,
)
from spin_stirling.errors import (
    InvariantViolation,
    OverflowCapError,
    ValidationError,
)

# Reference values computed once from the diagonalization oracle and frozen.
F_M32_T20 = 0.31231490286459945
F_M42_T20 = 0.3202606739205969
F_M32_T40 = 0.28991146115746824
S_M32_T20 = 1.2646317623742447
S_M32_T40 = 1.3423922021927244
U_M32_T20 = -5.9822306750015475
U_M42_T40 = -6.11263922991757
P_SINGLET_M42_T20 = 0.03921797823820921


def point(j, t):
    return ThermalPoint.from_values(j, t)


class TestCoupling:
    def test_accepts_values_within_cap(self):
        assert Coupling(-42.0).j_over_kb == -42.0
        assert Coupling(1.0e4).j_over_kb == 1.0e4

    def test_rejects_values_beyond_cap(self):
        with pytest.raises(ValidationError):
            Coupling(2.0e4)
        with pytest.raises(ValidationError):
            Coupling(-1.0001e4)

    def test_custom_cap_widens_the_range(self):
        assert Coupling(2.0e4, cap=3.0e4).j_over_kb == 2.0e4

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Coupling(float("nan"))
        with pytest.raises(ValidationError):
            Coupling(float("inf"))

    def test_cap_does_not_affect_equality(self):
        assert Coupling(-32.0, cap=1.0e4) == Coupling(-32.0, cap=2.0e4)


class TestThermalPoint:
    def test_from_values(self):
        pt = ThermalPoint.from_values(-32.0, 20.0)
        assert pt.j_over_kb == -32.0
        assert pt.temperature == 20.0

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValidationError):
            ThermalPoint.from_values(-32.0, 0.0)
        with pytest.raises(ValidationError):
            ThermalPoint.from_values(-32.0, -5.0)

    def test_rejects_non_finite_temperature(self):
        with pytest.raises(ValidationError):
            ThermalPoint.from_values(-32.0, float("nan"))


class TestDimensionlessSusceptibility:
    def test_frozen_values(self):
        assert dimensionless_susceptibility(point(-32, 20)) == pytest.approx(
            F_M32_T20, abs=1e-15
        )
        assert dimensionless_susceptibility(point(-42, 20)) == pytest.approx(
            F_M42_T20, abs=1e-15
        )

    def test_zero_coupling_gives_one_quarter(self):
        for t in (0.5, 20.0, 350.0):
            assert dimensionless_susceptibility(point(0.0, t)) == 0.25

    def test_high_temperature_limit_is_one_quarter(self):
        for j in (-200.0, 200.0):
            f = dimensionless_susceptibility(point(j, 1.0e6))
            assert abs(f - 0.25) < 1e-4

    def test_antiferromagnetic_low_temperature_underflows_to_zero(self):
        # Strong singlet ground state: the triplet weight underflows cleanly.
        assert dimensionless_susceptibility(point(1.0e4, 1.0)) == 0.0

    def test_ferromagnetic_low_temperature_saturates_at_one_third(self):
        f = dimensionless_susceptibility(point(-1.0e4, 1.0))
        assert f == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_bounds_on_random_grid(self):
        rng = np.random.default_rng(1)
        js = rng.uniform(-500.0, 500.0, size=400)
        ts = rng.uniform(0.1, 1000.0, size=400)
        for j, t in zip(js, ts):
            f = dimensionless_susceptibility(ThermalPoint(Coupling(j), t))
            assert 0.0 <= f <= 1.0 / 3.0 + 1e-15
            assert math.isfinite(f)


class TestMolarSusceptibility:
    def test_decoupled_dimer_matches_curie_law(self):
        # At J = 0 the shape function is 1/4, so chi*T = 2 C g^2 / 4 ... with
        # g = 2 that collapses to twice the Curie constant.
        chi = molar_susceptibility(point(0.0, 1.0), g=2.0)
        assert chi == pytest.approx(2.0 * CURIE_CONSTANT_EMU_K_PER_MOL, abs=1e-15)

    def test_frozen_value(self):
        chi = molar_susceptibility(point(-32, 20), g=2.1)
        assert chi == pytest.approx(0.05166959896118547, abs=1e-17)

    def test_inverts_back_to_shape_function(self):
        g = 2.1
        pt = point(-42, 20)
        chi = molar_susceptibility(pt, g=g)
        f = chi * pt.temperature / (2.0 * CURIE_CONSTANT_EMU_K_PER_MOL * g * g)
        assert f == pytest.approx(F_M42_T20, abs=1e-14)

    def test_rejects_nonpositive_g(self):
        with pytest.raises(ValidationError):
            molar_susceptibility(point(-32, 20), g=0.0)
        with pytest.raises(ValidationError):
            molar_susceptibility(point(-32, 20), g=-2.0)


class TestPopulations:
    def test_uniform_at_zero_coupling(self):
        p = populations(point(0.0, 77.0))
        assert p.p1 == p.p2 == p.p3 == p.p4 == 0.25

    def test_frozen_values(self):
        p = populations(point(-42, 20))
        assert p.p1 == pytest.approx(F_M42_T20, abs=1e-15)
        assert p.p4 == pytest.approx(P_SINGLET_M42_T20, abs=1e-15)

    def test_singlet_dominates_for_strong_antiferromagnetic_coupling(self):
        p = populations(point(100.0, 1.0))
        assert p.p4 > 1.0 - 1e-15
        assert p.p1 < 1e-15

    def test_normalization_on_random_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            j = rng.uniform(-500.0, 500.0)
            t = rng.uniform(0.1, 1000.0)
            p = populations(ThermalPoint(Coupling(j), t))
            assert abs(p.p1 + p.p2 + p.p3 + p.p4 - 1.0) <= 1e-14

    def test_vector_enforces_triplet_degeneracy(self):
        with pytest.raises(InvariantViolation):
            PopulationVector(p1=0.3, p2=0.30000001, p3=0.3, p4=0.09999999)

    def test_vector_enforces_normalization(self):
        with pytest.raises(InvariantViolation):
            PopulationVector(p1=0.3, p2=0.3, p3=0.3, p4=0.2)

    def test_vector_enforces_unit_interval(self):
        with pytest.raises(InvariantViolation):
            PopulationVector(p1=-0.1, p2=-0.1, p3=-0.1, p4=1.3)


class TestEntropy:
    def test_zero_coupling_is_ln_four_exactly(self):
        assert entropy(point(0.0, 12.0)) == math.log(4.0)

    def test_frozen_values(self):
        assert entropy(point(-32, 40)) == pytest.approx(S_M32_T40, abs=1e-15)
        assert entropy(point(-32, 20)) == pytest.approx(S_M32_T20, abs=1e-15)

    def test_pure_singlet_limit_vanishes(self):
        assert entropy(point(1.0e4, 1.0)) == 0.0

    def test_ferromagnetic_limit_approaches_ln_three(self):
        s = entropy(point(-1.0e4, 1.0))
        assert s == pytest.approx(math.log(3.0), abs=1e-12)

    def test_matches_shannon_entropy_of_populations(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            j = rng.uniform(-500.0, 500.0)
            t = rng.uniform(0.1, 1000.0)
            pt = ThermalPoint(Coupling(j), t)
            p = populations(pt)
            shannon = -sum(
                w * math.log(w) for w in (p.p1, p.p2, p.p3, p.p4) if w > 0.0
            )
            assert entropy(pt) == pytest.approx(shannon, abs=1e-12)

    def test_bounded_by_ln_four(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            j = rng.uniform(-500.0, 500.0)
            t = rng.uniform(0.1, 1000.0)
            s = entropy(ThermalPoint(Coupling(j), t))
            assert 0.0 <= s <= math.log(4.0) + 1e-15


class TestInternalEnergy:
    def test_zero_coupling_vanishes(self):
        assert internal_energy(point(0.0, 300.0)) == 0.0

    def test_frozen_values(self):
        assert internal_energy(point(-32, 20)) == pytest.approx(U_M32_T20, abs=1e-12)
        assert internal_energy(point(-42, 40)) == pytest.approx(U_M42_T40, abs=1e-12)

    def test_singlet_ground_state_energy(self):
        # Deep in the antiferromagnetic regime U tends to -3J/4.
        assert internal_energy(point(100.0, 0.01)) == -75.0

    def test_heat_capacity_is_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            j = rng.uniform(-400.0, 400.0)
            t = rng.uniform(1.0, 800.0)
            h = 1e-4 * t
            u_plus = internal_energy(ThermalPoint(Coupling(j), t + h))
            u_minus = internal_energy(ThermalPoint(Coupling(j), t - h))
            slope = (u_plus - u_minus) / (2.0 * h)
            assert slope >= -1e-9


class TestGibbsOracle:
    def test_matches_closed_forms_at_frozen_point(self):
        pt = point(-32, 20)
        res = gibbs_oracle(pt)
        assert res.entropy == pytest.approx(entropy(pt), abs=1e-12)
        assert res.internal_energy == pytest.approx(internal_energy(pt), abs=1e-12)
        p_closed = populations(pt)
        assert res.populations.p1 == pytest.approx(p_closed.p1, abs=1e-13)
        assert res.populations.p4 == pytest.approx(p_closed.p4, abs=1e-13)

    def test_eigenvalues_are_exchange_split(self):
        # Triplet levels first, singlet last; values carry LAPACK roundoff.
        res = gibbs_oracle(point(-32, 20))
        assert res.eigenvalues[:3] == pytest.approx((-8.0, -8.0, -8.0), abs=1e-11)
        assert res.eigenvalues[3] == pytest.approx(24.0, abs=1e-11)
        res = gibbs_oracle(point(100, 50))
        assert res.eigenvalues[:3] == pytest.approx((25.0, 25.0, 25.0), abs=1e-11)
        assert res.eigenvalues[3] == pytest.approx(-75.0, abs=1e-11)

    def test_zero_coupling_entropy(self):
        res = gibbs_oracle(point(0.0, 1.0))
        assert res.entropy == pytest.approx(math.log(4.0), abs=1e-14)

    def test_equivalence_on_random_grid(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(200):
            j = rng.uniform(-200.0, 200.0)
            t = rng.uniform(5.0, 400.0)
            pt = ThermalPoint(Coupling(j), t)
            res = gibbs_oracle(pt)
            worst = max(
                worst,
                abs(res.entropy - entropy(pt)),
                abs(res.internal_energy - internal_energy(pt)),
                abs(res.populations.p1 - dimensionless_susceptibility(pt)),
            )
        assert worst <= 1e-12

    def test_rejects_extreme_exponents(self):
        with pytest.raises(OverflowCapError):
            gibbs_oracle(point(1.0e4, 1.0))
        with pytest.raises(OverflowCapError):
            gibbs_oracle(point(-800.0, 1.0))

    def test_overflow_cap_error_is_a_validation_error(self):
        assert issubclass(OverflowCapError, ValidationError)

    def test_closed_forms_have_no_exponent_cap(self):
        # The stable kernels keep working where diagonalization refuses.
        assert dimensionless_susceptibility(point(1.0e4, 1.0)) == 0.0
        assert entropy(point(-1.0e4, 0.5)) == pytest.approx(math.log(3.0), abs=1e-12)


@given(
    t=st.floats(
        min_value=1e-6, max_value=DEFAULT_COUPLING_CAP_K / ORACLE_EXPONENT_CAP
    ),
    reach=st.floats(min_value=0.0, max_value=1.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_oracle_refuses_beyond_its_cap_where_closed_forms_stay_finite(t, reach, sign):
    # |J| spans from the oracle's cap at this temperature to the coupling cap.
    low = ORACLE_EXPONENT_CAP * t
    j = sign * min(low + reach * (DEFAULT_COUPLING_CAP_K - low), DEFAULT_COUPLING_CAP_K)
    assume(abs(j) / t > ORACLE_EXPONENT_CAP)
    pt = ThermalPoint(Coupling(j), t)
    with pytest.raises(OverflowCapError):
        gibbs_oracle(pt)
    pops = populations(pt)
    s = entropy(pt)
    u = internal_energy(pt)
    assert all(math.isfinite(p) for p in pops.as_tuple())
    assert math.isfinite(s) and math.isfinite(u)
    # Deep in the gap the ground manifold holds the whole population.
    ground = math.log(3.0) if j < 0 else 0.0
    assert s == pytest.approx(ground, abs=1e-12)


@given(
    j=st.floats(min_value=-500.0, max_value=500.0),
    t=st.floats(min_value=0.1, max_value=1000.0),
)
@settings(max_examples=150, deadline=None)
def test_state_functions_are_finite_and_consistent(j, t):
    pt = ThermalPoint(Coupling(j), t)
    f = dimensionless_susceptibility(pt)
    s = entropy(pt)
    u = internal_energy(pt)
    assert math.isfinite(f) and math.isfinite(s) and math.isfinite(u)
    assert 0.0 <= f <= 1.0 / 3.0 + 1e-15
    assert -1e-15 <= s <= math.log(4.0) + 1e-15
    # U is exactly 3 J (F - 1/4) by construction, so cross-check the pieces.
    assert u == pytest.approx(3.0 * j * (f - 0.25), rel=1e-12, abs=1e-12)
