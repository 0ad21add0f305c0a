import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald import (
    DomainError,
    RangeError,
    abs_gamma_imag,
    besseli_imag,
    besselk_dx,
    besselk_imag,
    besselk_largex_approx,
    besselk_smallx_approx,
    combination_imag_residue,
    ode_residual,
    smallx_error_envelope,
)

from macdonald.bessel_im import X_SWITCH, _k_fused, _k_series, _k_values

import oracles


class TestBesselI:
    def test_conjugate_pair(self):
        plus = besseli_imag(1.3, 2.0, sign=+1).value
        minus = besseli_imag(1.3, 2.0, sign=-1).value
        assert minus == pytest.approx(plus.conjugate(), rel=1e-14)

    def test_order_zero_leading_terms(self):
        x = 1e-3
        v = besseli_imag(0.0, x).value
        assert v.imag == 0.0
        assert v.real == pytest.approx(1.0 + x * x / 4.0, abs=1e-10)

    def test_frozen_series_oracle(self):
        # 200-digit, 60-term summation of the defining series
        v = besseli_imag(1.0, 1.0).value
        assert abs(v - oracles.I_I1_AT_1) <= 1e-12 * abs(oracles.I_I1_AT_1)

    def test_x_out_of_range(self):
        with pytest.raises(RangeError):
            besseli_imag(1.0, 31.0)

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            besseli_imag(1.0, 1.0, sign=2)


class TestBesselK:
    def test_symmetry_in_nu_bitwise(self):
        a = besselk_imag(0.9, 0.4).value
        b = besselk_imag(-0.9, 0.4).value
        assert a == b

    def test_large_x_asymptotic_band(self):
        x = 50.0
        v = besselk_imag(1.0, x).value
        ratio = v * math.sqrt(2 * x / math.pi) * math.exp(x)
        assert 1 - 2 / x <= ratio <= 1 + 2 / x

    def test_frozen_integral_oracle(self):
        v = besselk_imag(1.0, 1.0).value
        assert v == pytest.approx(oracles.K_I1_AT_1, rel=1e-12)

    def test_grid_against_extended_precision(self):
        for (nu, x), ref in oracles.K_GRID.items():
            v = besselk_imag(nu, x).value
            assert v == pytest.approx(ref, rel=1e-10), (nu, x)

    def test_live_oracle_spot_check(self):
        # recompute a few frozen grid values with the reference quadrature
        for nu, x in [(0.5, 0.1), (2.0, 1.0), (5.0, 5.0)]:
            ref = float(oracles.k_integral_ref(nu, x))
            assert ref == pytest.approx(oracles.K_GRID[(nu, x)], rel=1e-15)

    def test_cross_method_agreement(self):
        for nu in (0.1, 1.0, 10.0):
            for x in (1.0, 1.5, 2.0, 3.0, 4.0):
                s = besselk_imag(nu, x, method="series").value
                i = besselk_imag(nu, x, method="integral").value
                assert i == pytest.approx(s, rel=1e-9), (nu, x)

    def test_method_tags(self):
        assert besselk_imag(1.0, 1.0).method == "series-combination"
        assert besselk_imag(1.0, 10.0).method == "integral-representation"

    def test_realness_residue(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            nu = rng.uniform(0.05, 20.0)
            x = 10 ** rng.uniform(-4, math.log10(2.0))
            assert combination_imag_residue(float(nu), float(x)) < 1e-10

    def test_positivity_in_decay_regime(self):
        # monotone decay holds for x beyond the transition point x ~ nu;
        # below it the function still oscillates (K_{20i}(5) < 0)
        for nu in (0.1, 1.0, 5.0, 20.0):
            for x in (5.0, 10.0, 25.0):
                if x >= nu:
                    assert besselk_imag(nu, x).value > 0.0, (nu, x)

    def test_nu_zero_series_rejected(self):
        with pytest.raises(DomainError):
            besselk_imag(0.0, 1.0, method="series")

    def test_nu_zero_integral_ok(self):
        # K_0(1) = 0.42102 44382 40708...
        assert besselk_imag(0.0, 1.0).value == pytest.approx(0.421024438240708, rel=1e-12)

    def test_x_nonpositive_rejected(self):
        with pytest.raises(RangeError):
            besselk_imag(1.0, 0.0)

    def test_nu_too_large_rejected(self):
        with pytest.raises(DomainError):
            besselk_imag(51.0, 1.0)


class TestFusedCore:
    def test_bitwise_equal_to_two_series_combination(self):
        # one I_{i nu} series gives K and K' with the bits and error
        # estimates of the (I_{-i nu} - I_{i nu}) combination at each order
        for nu in np.geomspace(0.05, 50.0, 25):
            for x in np.geomspace(1e-6, 2.0, 25):
                nu, x = float(nu), float(x)
                (k, k_err), (dk, dk_err) = _k_fused(nu, x)
                assert (k, k_err) == _k_series(nu, x, 0)[:2], (nu, x)
                assert (dk, dk_err) == _k_series(nu, x, 1)[:2], (nu, x)

    def test_public_wrappers_share_the_core(self):
        (k, k_err), (dk, dk_err) = _k_fused(1.3, 0.7)
        fk, fdk = besselk_imag(1.3, 0.7), besselk_dx(1.3, 0.7)
        assert (fk.value, fk.abs_err_estimate) == (k, k_err)
        assert (fdk.value, fdk.abs_err_estimate) == (dk, dk_err)
        assert fk.method == fdk.method == "series-combination"

    def test_series_refused_beyond_its_range_for_both_orders(self):
        for f in (besselk_imag, besselk_dx):
            with pytest.raises(RangeError):
                f(1.0, 31.0, method="series")


def in_known_defect(nu, x):
    """Where the scalar integral path is itself wrong (ROADMAP item 1)."""
    return (x > 2.0 and nu >= 10.0) or 25.0 <= x <= 40.0


class TestArrayCore:
    def test_matches_scalar_path_within_its_estimate(self):
        xs = np.geomspace(1e-6, 30.0, 25)
        assert xs.min() <= X_SWITCH < xs.max()  # both branches
        for nu in np.geomspace(0.05, 50.0, 12):
            values = _k_values([nu, 1.0], xs)
            assert values.shape == (xs.size, 2)
            for x, v in zip(xs, values[:, 0]):
                nu, x = float(nu), float(x)
                if in_known_defect(nu, x):
                    continue
                k = besselk_imag(nu, x)
                bound = max(k.abs_err_estimate, 1e-15 * math.exp(-x))
                assert abs(v - k.value) <= bound, (nu, x)

    def test_order_zero_and_sign(self):
        xs = np.array([0.5, 1.0, 3.0])
        values = _k_values([0.0, -1.3], xs)
        for j, nu in enumerate((0.0, 1.3)):
            for x, v in zip(xs, values[:, j]):
                k = besselk_imag(nu, float(x))
                assert abs(v - k.value) <= k.abs_err_estimate, (nu, x)

    @pytest.mark.parametrize("nus", [[51.0, 1.0], [1.0, 60.0], [math.nan, 1.0]])
    def test_order_out_of_range_rejected(self, nus):
        with pytest.raises(DomainError):
            _k_values(nus, np.array([1.0]))

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_abscissa_out_of_range_rejected(self, x):
        with pytest.raises(RangeError):
            _k_values([1.0], np.array([1.0, x]))


class TestSeriesEstimate:
    def test_error_within_estimate_against_mpmath(self):
        # 30-digit references at small x, where the phase nu ln(x/2) is
        # large and its rounding sets the error; without that term in the
        # estimate 18 of these 60 points were within it
        rng = np.random.default_rng(20)
        within = 0
        for _ in range(60):
            nu, x = float(rng.uniform(0.5, 2.5)), float(10.0 ** rng.uniform(-6.0, -1.0))
            k = besselk_imag(nu, x)
            ref = oracles.k_besselk_ref(nu, x)
            within += abs(k.value - ref) <= k.abs_err_estimate
        assert within >= 40


class TestBesselKDerivative:
    def test_against_richardson_finite_difference(self):
        nu, x = 0.8, 0.7
        h = 1e-4
        d1 = (besselk_imag(nu, x + h).value - besselk_imag(nu, x - h).value) / (2 * h)
        d2 = (besselk_imag(nu, x + h / 2).value - besselk_imag(nu, x - h / 2).value) / h
        fd = (4 * d2 - d1) / 3
        assert besselk_dx(nu, x).value == pytest.approx(fd, abs=1e-8)

    def test_large_x_logarithmic_slope(self):
        nu, x = 1.0, 40.0
        ratio = besselk_dx(nu, x).value / besselk_imag(nu, x).value
        assert -1 - 3 / x <= ratio <= -1 + 3 / x

    def test_symmetry_in_nu(self):
        assert besselk_dx(1.1, 0.3).value == besselk_dx(-1.1, 0.3).value


class TestSmallXApprox:
    def test_log_vanishes_at_x_two(self):
        from macdonald import arg_gamma_imag

        expected = math.sqrt(math.pi / math.sinh(math.pi)) * math.cos(arg_gamma_imag(1.0))
        assert besselk_smallx_approx(1.0, 2.0) == pytest.approx(expected, rel=1e-13)

    def test_error_scales_as_x_squared(self):
        e1 = abs(besselk_imag(1.0, 1e-2).value - besselk_smallx_approx(1.0, 1e-2))
        e2 = abs(besselk_imag(1.0, 2e-2).value - besselk_smallx_approx(1.0, 2e-2))
        # oscillatory factor: compare phase-averaged envelopes instead of
        # raw point errors, which can sit near a node of the sine
        env1 = smallx_error_envelope(1.0, 1e-2)
        env2 = smallx_error_envelope(1.0, 2e-2)
        assert env2 / env1 == pytest.approx(4.0, rel=0.5)
        assert e1 <= env1 * 1.5 + 1e-12
        assert e2 <= env2 * 1.5 + 1e-12

    @given(
        nu=st.floats(min_value=0.05, max_value=20.0),
        x=st.floats(min_value=1e-6, max_value=2.0),
    )
    @settings(max_examples=50)
    def test_amplitude_bound(self, nu, x):
        assert abs(besselk_smallx_approx(nu, x)) <= abs_gamma_imag(nu) * (1 + 1e-14)

    def test_nu_zero_rejected(self):
        with pytest.raises(DomainError):
            besselk_smallx_approx(0.0, 0.5)


class TestLargeXApprox:
    def test_relative_band(self):
        x = 50.0
        ratio = besselk_imag(1.0, x).value / besselk_largex_approx(1.0, x)
        assert abs(ratio - 1) <= 2 / x

    def test_monotone_decreasing(self):
        assert besselk_largex_approx(1.0, 5.0) > besselk_largex_approx(1.0, 10.0)

    def test_independent_of_nu(self):
        assert besselk_largex_approx(0.5, 20.0) == besselk_largex_approx(3.0, 20.0)

    def test_below_range_rejected(self):
        with pytest.raises(RangeError):
            besselk_largex_approx(1.0, 4.0)


class TestOdeResidual:
    def test_k_at_unity(self):
        assert ode_residual(1.0, 1.0) <= 1e-8

    def test_k_oscillatory_regime(self):
        assert ode_residual(2.0, 0.01) <= 1e-6

    def test_i_family(self):
        assert ode_residual(1.0, 1.0, family="I") <= 1e-8

    def test_guaranteed_domain(self):
        for nu in (0.1, 1.0, 10.0):
            for x in (1e-4, 0.1, 2.0, 20.0):
                assert ode_residual(nu, x) <= 1e-6, (nu, x)
