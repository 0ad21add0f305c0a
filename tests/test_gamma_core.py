import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald import (
    DomainError,
    abs_gamma_imag,
    arg_gamma_imag,
    log_gamma,
    reciprocal_gamma,
)

import oracles


class TestLogGamma:
    def test_gamma_of_one(self):
        ge = log_gamma(1 + 0j)
        assert ge.log_modulus == pytest.approx(0.0, abs=1e-15)
        assert ge.phase == pytest.approx(0.0, abs=1e-15)

    def test_gamma_of_half(self):
        ge = log_gamma(0.5 + 0j)
        assert ge.log_modulus == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert ge.phase == pytest.approx(0.0, abs=1e-15)

    def test_gamma_of_i_modulus(self):
        # |Gamma(i)| = sqrt(pi / sinh pi)
        ge = log_gamma(1j)
        expected = math.log(math.sqrt(math.pi / math.sinh(math.pi)))
        assert ge.log_modulus == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_pole_rejected(self, z):
        with pytest.raises(DomainError):
            log_gamma(complex(z, 0.0))

    def test_large_argument_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(2e4 + 0j)

    def test_phase_in_principal_range(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if z.imag == 0 and z.real <= 0:
                continue
            p = log_gamma(z).phase
            assert -math.pi < p <= math.pi

    def test_recurrence_100_random_points(self):
        # Gamma(z+1) = z Gamma(z), in log form, phases compared modulo 2 pi
        rng = np.random.default_rng(42)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if not (0.1 <= abs(z) <= 50) or abs(z + 1) < 0.1:
                continue
            if z.imag == 0 and z.real <= 0:
                continue
            count += 1
            a = log_gamma(z)
            b = log_gamma(z + 1)
            assert b.log_modulus == pytest.approx(
                a.log_modulus + math.log(abs(z)), rel=1e-11, abs=1e-11
            )
            dphase = b.phase - (a.phase + cmath.phase(z))
            assert abs(math.remainder(dphase, 2 * math.pi)) < 1e-11

    @given(
        st.complex_numbers(
            min_magnitude=0.1, max_magnitude=50, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=200)
    def test_conjugate_symmetry(self, z):
        if abs(z.imag) < 1e-6:
            return
        a = log_gamma(z)
        b = log_gamma(z.conjugate())
        assert b.log_modulus == pytest.approx(a.log_modulus, rel=1e-12, abs=1e-12)
        assert b.phase == pytest.approx(-a.phase, rel=1e-12, abs=1e-12)

    def test_against_extended_precision(self):
        ref = oracles.log_gamma_ref(3.5 + 2.25j)
        ge = log_gamma(3.5 + 2.25j)
        assert ge.log_modulus == pytest.approx(float(ref.real), rel=1e-13)
        assert ge.phase == pytest.approx(float(ref.imag), rel=1e-12)


class TestReciprocalGamma:
    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -10.0])
    def test_zeros_at_nonpositive_integers(self, z):
        assert reciprocal_gamma(complex(z, 0.0)) == 0.0

    def test_gamma_three(self):
        assert reciprocal_gamma(3 + 0j) == pytest.approx(0.5, rel=1e-14)

    def test_one_plus_i_frozen_reference(self):
        v = reciprocal_gamma(1 + 1j)
        assert v.real == pytest.approx(oracles.RECIP_GAMMA_1_PLUS_I.real, rel=1e-13)
        assert v.imag == pytest.approx(oracles.RECIP_GAMMA_1_PLUS_I.imag, rel=1e-13)

    def test_consistency_with_log_gamma(self):
        z = 1 + 1j
        ge = log_gamma(z)
        via_log = cmath.exp(complex(-ge.log_modulus, -ge.phase))
        assert abs(reciprocal_gamma(z) - via_log) < 1e-13


class TestImaginaryAxisClosedForms:
    def test_nu_one_closed_form(self):
        assert abs_gamma_imag(1.0) == pytest.approx(
            math.sqrt(math.pi / math.sinh(math.pi)), rel=1e-14
        )

    def test_even_in_nu(self):
        assert abs_gamma_imag(-2.0) == abs_gamma_imag(2.0)

    def test_cross_check_two_code_paths(self):
        # closed form vs exp(log_gamma) on the imaginary axis
        assert abs_gamma_imag(1.0) == pytest.approx(
            math.exp(log_gamma(1j).log_modulus), rel=1e-12
        )

    @pytest.mark.parametrize("nu", [0.0, 101.0])
    def test_domain_errors(self, nu):
        with pytest.raises(DomainError):
            abs_gamma_imag(nu)

    @pytest.mark.parametrize("nu", [1e-170, 1e-300, -1e-200, 8e-155, 1e-154, 3e-308])
    def test_tiny_nu_where_nu_sinh_underflows(self, nu):
        # nu sinh(pi nu) = pi nu^2 underflows below ~1e-154; |Gamma(i nu)| = 1/|nu| there
        assert abs_gamma_imag(nu) == pytest.approx(1.0 / abs(nu), rel=1e-15)

    def test_tiny_nu_matches_log_gamma(self):
        # exp of log|Gamma| ~ 391 carries ~391 ulp of relative rounding
        assert abs_gamma_imag(1e-170) == pytest.approx(
            math.exp(log_gamma(1e-170j).log_modulus), rel=1e-12
        )

    @pytest.mark.parametrize("nu", [1e-310, 5e-324, math.nan, math.inf])
    def test_subnormal_and_non_finite_nu_rejected(self, nu):
        with pytest.raises(DomainError):
            abs_gamma_imag(nu)

    def test_reflection_consistency(self):
        # |1/Gamma(i nu)| * |Gamma(i nu)| == 1
        for nu in np.geomspace(0.1, 20, 25):
            prod = abs(reciprocal_gamma(complex(0, nu))) * abs_gamma_imag(float(nu))
            assert prod == pytest.approx(1.0, abs=1e-10)

    def test_arg_conjugate_antisymmetry(self):
        assert arg_gamma_imag(0.7) + arg_gamma_imag(-0.7) == 0.0

    def test_arg_small_nu_pole_dominated(self):
        # Gamma(i nu) ~ 1/(i nu) - gamma_E for nu -> 0, so arg -> -pi/2
        assert arg_gamma_imag(1e-6) == pytest.approx(-math.pi / 2, abs=1e-5)

    def test_arg_frozen_reference(self):
        assert arg_gamma_imag(1.0) == pytest.approx(oracles.ARG_GAMMA_I, rel=1e-13)

    def test_arg_zero_rejected(self):
        with pytest.raises(DomainError):
            arg_gamma_imag(0.0)
