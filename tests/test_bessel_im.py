import dataclasses
import json
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald import (
    DomainError,
    PairSpec,
    RangeError,
    TestFunctionSpec,
    abs_gamma_imag,
    besseli_imag,
    besselk_dx,
    besselk_imag,
    besselk_largex_approx,
    besselk_smallx_approx,
    combination_imag_residue,
    kernel_boundary,
    ode_residual,
    smallx_error_envelope,
    weak_limit_test,
)

from macdonald.bessel_im import (
    _CHUNK,
    X_SERIES_MAX,
    X_SWITCH,
    _k_dk_series,
    _k_eval,
    _k_integral,
    _k_integral_values,
    _k_series,
    _k_sweeps,
    _k_values,
    _phase_err,
    _x_switch,
)

from macdonald import bessel_im
from macdonald.gamma_core import _TINY

import oracles
import sweep_reference


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

    def test_both_signs_against_mpmath(self):
        # the series is normalised by 1/|Gamma(1 + i nu)| = sqrt(sinh(pi nu) / (pi nu)),
        # its phase by arg Gamma(1 + i nu): at small x the modulus is that factor's
        # alone, kept to 1e-14, and each value lies within its own estimate
        rng = np.random.default_rng(9)
        nus = np.concatenate([10.0 ** rng.uniform(-300.0, -3.0, 10), rng.uniform(1e-3, 50.0, 60)])
        xs = 10.0 ** rng.uniform(-8.0, 0.0, nus.size)
        with mp.workdps(40):
            for nu, x in zip(nus, xs):
                nu, x = float(nu), float(x)
                plus, minus = besseli_imag(nu, x, +1), besseli_imag(nu, x, -1)
                assert minus.value == plus.value.conjugate(), (nu, x)
                ref = complex(mp.besseli(mp.mpc(0, nu), x))
                assert abs(plus.value - ref) <= plus.abs_err_estimate, (nu, x)
                assert abs(abs(plus.value) / abs(ref) - 1.0) <= 1e-14, (nu, x)

    def test_within_estimate_on_a_seeded_grid(self):
        # the estimate counts the ~k roundings of the c_k recurrence in the k-th term
        # and the roundings of e^{i psi} and of e^{i psi} S: without them 53 of these
        # 600 values (up to 14 times their estimate) lay beyond it
        rng = np.random.default_rng(16)
        nus = np.exp(rng.uniform(math.log(0.01), math.log(50.0), 600))
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), 600))
        with mp.workdps(40):
            for nu, x in zip(nus.tolist(), xs.tolist()):
                v = besseli_imag(nu, x)
                assert abs(mp.mpc(v.value) - mp.besseli(mp.mpc(0, nu), x)) <= v.abs_err_estimate, (
                    nu, x
                )

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


class TestScalarCore:
    def test_bitwise_equal_to_two_series_combination(self):
        # one I_{i nu} series pass for K and K', one for K'', give the bits and error
        # estimates of the (I_{-i nu} - I_{i nu}) combination at each order
        for nu in np.geomspace(0.05, 50.0, 25):
            for x in np.geomspace(1e-6, 2.0, 25):
                nu, x = float(nu), float(x)
                (k, k_err), (dk, dk_err), (d2k, d2k_err) = _k_eval(nu, x, orders=(0, 1, 2))[0]
                assert (k, k_err) == _k_series(nu, x, 0)[:2], (nu, x)
                assert (dk, dk_err) == _k_series(nu, x, 1)[:2], (nu, x)
                assert (d2k, d2k_err) == _k_series(nu, x, 2)[:2], (nu, x)

    def test_public_wrappers_share_the_core(self):
        # the core returns x K'; besselk_dx divides it and its estimate by x
        (k, k_err), (xdk, xdk_err) = _k_eval(1.3, 0.7)[0]
        fk, fdk = besselk_imag(1.3, 0.7), besselk_dx(1.3, 0.7)
        assert (fk.value, fk.abs_err_estimate) == (k, k_err)
        assert (fdk.value, fdk.abs_err_estimate) == (xdk / 0.7, xdk_err / 0.7)
        assert fk.method == fdk.method == "series-combination"

    def test_series_refused_beyond_its_range_for_both_orders(self):
        for f in (besselk_imag, besselk_dx):
            with pytest.raises(RangeError):
                f(1.0, 31.0, method="series")


def full_grid_trapezoid(nu, x, deriv):
    """_k_integral's rule with every doubling rebuilding and summing all n + 1 nodes at once.

    Returns K, x K' or x^2 K'' as _k_integral does: the sums scaled by -x or x^2 after the rule.
    """
    nu = abs(nu)
    T = math.acosh(max(46.0 / x, 1.5))

    def trap(n):
        t = np.linspace(0.0, T, n + 1)
        ch = np.cosh(t)
        f = np.exp(-x * ch) * np.cos(nu * t)
        if deriv:
            f *= ch**deriv
        f[0] *= 0.5
        f[-1] *= 0.5
        return (T / n) * math.fsum(f.tolist())

    n = 64
    prev = trap(n)
    last_change = math.inf
    for _ in range(12):
        n *= 2
        cur = trap(n)
        change = abs(cur - prev)
        stop = change <= 1e-13 * abs(cur) + 1e-18 * math.exp(-x) and last_change < math.inf
        prev, last_change = cur, change
        if stop:
            break
    tail = math.exp(-x * math.cosh(T)) / (x * math.sinh(T))
    scale = (1.0, -x, x * x)[deriv]
    return scale * prev, abs(scale) * (last_change + tail + math.ulp(1.0) * abs(prev))


def outcome(f, *args):
    """repr of f(*args), or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestIntegralPath:
    # (36.21, 38.49) runs all 12 doublings, to 262 145 nodes
    DEEP = (36.21, 38.49)

    def test_bitwise_equal_to_full_grid_trapezoid(self):
        # refusals too: at x = 1e-300, K'' overflows in (cosh t)^2 alike
        rng = np.random.default_rng(2026)
        nus = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 150)).tolist() + [0.0, 5e-324]
        xs = np.exp(rng.uniform(0.0, math.log(700.0), 150)).tolist() + [1e-300, 1e-300]
        for nu, x in [*zip(nus, xs), self.DEEP]:
            for d in (0, 1, 2):
                new, ref = outcome(_k_integral, nu, x, d), outcome(full_grid_trapezoid, nu, x, d)
                assert new == ref, (nu, x, d)

    def test_traced_peak_at_twelve_doublings(self):
        # the full-grid rule held about five 262 145-node arrays and a list of as many floats:
        # 14.7 MB traced; one float64 per node is 2.1 MB
        nu, x = self.DEEP
        assert besselk_imag(nu, x).method == "integral-representation"
        besselk_dx(nu, x)  # first-use set-up stays outside the peak
        tracemalloc.start()
        try:
            besselk_imag(nu, x)
            besselk_dx(nu, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0e6


def in_known_defect(nu, x):
    """Where the scalar integral path is itself wrong (ROADMAP item 2)."""
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


def pass_per_level_trapezoid(nus, x):
    """_k_integral_values as three passes from 64 intervals, each level evaluating its own nodes.

    Returns the values and the most intervals any row took.
    """
    m, nu = len(nus), np.array(nus)
    T = math.acosh(max(46.0 / float(x.min()), 1.5))

    def sums_of(x, t, weight):
        c = np.cos(np.multiply.outer(t, nu)) * weight[:, None]
        c = np.hstack([c, np.abs(c)])
        out = np.zeros((x.size, 2 * m))
        step = max(1, _CHUNK // x.size)
        for i in range(0, t.size, step):
            e = np.multiply.outer(x, -np.cosh(t[i : i + step]))
            np.exp(e, out=e)
            out += e @ c[i : i + step]
        return out

    n = 64
    t = np.linspace(0.0, T, n + 1)
    weight = np.ones(n + 1)
    weight[[0, -1]] = 0.5
    sums = sums_of(x, t, weight)
    value = (T / n) * sums[:, :m]
    scale = np.exp(-x)[:, None]
    rows = np.arange(x.size)
    for doubling in range(12):
        n *= 2
        h = T / n
        t = h * np.arange(1, n, 2)
        sums[rows] += sums_of(x[rows], t, np.ones(t.size))
        cur = h * sums[rows, :m]
        change = np.abs(cur - value[rows])
        floor = 8.0 * math.ulp(1.0) * math.sqrt(n) * h * sums[rows, m:]
        bound = 1e-13 * np.abs(cur) + 1e-18 * scale[rows] + floor
        value[rows] = cur
        if doubling:
            rows = rows[~np.all(change <= bound, axis=1)]
            if not rows.size:
                break
    return value, n


class TestArrayTrapezoid:
    """The first two doublings from one evaluation of 257 nodes keep every bit of a pass per level."""

    def test_bitwise_equal_to_a_pass_per_level(self):
        rng = np.random.default_rng(257)
        deepest = []
        for _ in range(150):
            nus = rng.uniform(0.0, 50.0, int(rng.integers(1, 4)))
            nus[0] = 0.0 if rng.random() < 0.2 else nus[0]
            x = np.exp(rng.uniform(math.log(2.0), math.log(700.0), int(rng.integers(1, 60))))
            ref, n = pass_per_level_trapezoid(list(nus), x)
            assert np.array_equal(_k_integral_values(list(nus), x), ref), (nus, x)
            deepest.append(n)
        assert min(deepest) == 256 and max(deepest) > 256  # rows that stop there, and beyond

    def test_bitwise_where_rows_leave_at_different_doublings(self):
        # low orders at 25 < x < 150 stop over several levels, so the live rows shrink more than once
        rng = np.random.default_rng(8)
        levels = set()
        for _ in range(100):
            nus = list(rng.uniform(0.0, 2.0, int(rng.integers(1, 3))))
            lo, hi = sorted(rng.uniform(math.log(2.0), math.log(800.0), 2))
            x = np.exp(rng.uniform(lo, hi, int(rng.integers(1, 60))))
            ref, n = pass_per_level_trapezoid(nus, x)
            assert np.array_equal(_k_integral_values(nus, x), ref), (nus, x)
            levels.add(n)
        assert max(levels) >= 4096

    def test_bitwise_where_the_first_block_is_chunked(self):
        # 257 nodes at 3 (_CHUNK // 257) abscissae would make one 25 MB matrix; each
        # temporary stays within _CHUNK elements (8.4 MB), and at most two are alive at once
        x = np.random.default_rng(4080).uniform(2.0, 40.0, 3 * (_CHUNK // 257))
        ref, _n = pass_per_level_trapezoid([1.0, 7.3], x)
        tracemalloc.start()
        try:
            values = _k_integral_values([1.0, 7.3], x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, ref)
        assert peak <= 2 * 8 * _CHUNK


class TestArraySeries:
    def test_agrees_with_scalar_core(self):
        # the two routes round differently, each by about the error estimate,
        # so they can differ by up to twice it (1.4 times at most on this grid)
        nus = np.geomspace(1e-2, 50.0, 30)
        xs = np.geomspace(1e-8, 2.0, 30)
        k, dk = _k_dk_series(nus[:, None], xs[None, :])
        assert k.shape == dk.shape == (nus.size, xs.size)
        for i, nu in enumerate(nus):
            for j, x in enumerate(xs):
                (kf, k_err), (dkf, dk_err) = _k_eval(float(nu), float(x))[0]
                assert abs(k[i, j] - kf) <= 2.0 * k_err, (nu, x)
                assert abs(dk[i, j] - dkf) <= 2.0 * dk_err, (nu, x)

    def test_agrees_with_scalar_core_up_to_the_switch(self):
        # the series domain of _k_eval: x <= 2 at nu <= 2, x <= nu up to 30
        nus = np.geomspace(1e-2, 50.0, 30)
        xs = np.geomspace(1e-8, 30.0, 40)
        for nu in nus:
            row = xs[xs <= _x_switch(float(nu))]
            k, dk = _k_dk_series(nu, row)
            for x, kv, dkv in zip(row, k, dk):
                (kf, k_err), (dkf, dk_err) = _k_eval(float(nu), float(x))[0]
                assert abs(kv - kf) <= 2.0 * k_err, (nu, x)
                assert abs(dkv - dkf) <= 2.0 * dk_err, (nu, x)

    @pytest.mark.parametrize("nu", [50.5, 0.0, -1.0, math.nan, math.inf])
    def test_order_out_of_range_rejected(self, nu):
        with pytest.raises(DomainError):
            _k_dk_series(np.array([1.0, nu]), 0.5)

    @pytest.mark.parametrize("nu", [12.0, 20.0])
    def test_derivative_kept_where_representable(self, nu):
        # |Gamma(i nu)| scales the sums of x K' on both paths, and besselk_dx divides
        # by x last, so K' ~ 5e292 and 2.5e287 are returned here, though I' ~
        # e^{pi nu / 2} / x is beyond the floats.  At nu = 20, K
        # sits near a zero (0.06 of its local amplitude), where the rounding of the
        # phase nu ln(x/2) ~ -13 830 alone is 1.6e-11 of K; the scalar estimate's
        # phase term (_phase_err) bounds it there
        x = 1e-300
        k, xdk = _k_dk_series(nu, x)
        k_ref, dk_ref = oracles.k_dk_besselk_ref(nu, x)
        amp = math.sqrt(k_ref**2 + (x * dk_ref) ** 2 / (nu * nu + x * x))
        assert abs(k - k_ref) <= max(1e-12 * abs(k_ref), _phase_err(nu, math.log(x / 2)) * amp)
        assert abs(xdk - x * dk_ref) <= 1e-12 * abs(x * dk_ref)
        assert abs(besselk_dx(nu, x).value - dk_ref) <= 1e-12 * abs(dk_ref)

    def test_a_point_rounds_alike_alone_and_in_an_array(self):
        # every sum runs along the last axis, so a lone point and a column of one
        # take the same additions in the same order
        rng = np.random.default_rng(3000)
        nus = 10.0 ** rng.uniform(-2.0, math.log10(50.0), 3000)
        xis = np.array([10.0 ** rng.uniform(-8.0, math.log10(_x_switch(float(nu)))) for nu in nus])
        for nu, xi in zip(nus, xis):
            alone = _k_dk_series(nu, xi)
            column = _k_dk_series(nu, np.array([[xi]]))
            assert alone[0] == column[0][0, 0] and alone[1] == column[1][0, 0], (nu, xi)

    def test_nu_derivatives_keep_the_bits_of_k(self):
        nus = np.geomspace(1e-2, 50.0, 20)[:, None]
        xs = np.geomspace(1e-8, 2.0, 15)
        k, dk, k_nu, dk_nu = _k_dk_series(nus, xs, dnu=True)
        assert k_nu.shape == dk_nu.shape == k.shape
        plain = _k_dk_series(nus, xs)
        assert np.array_equal(k, plain[0]) and np.array_equal(dk, plain[1])

    def test_nu_derivatives_against_mpmath(self):
        # within 2e-13 of the amplitude |Gamma(i nu)| (1 + |ln(x/2)| + 1/nu) of dK/dnu, and that
        # times 1 + nu + x for x dK'/dnu (measured: 3.4e-14 on 80 seeded points); near nu = 0
        # dK/dnu is O(nu) but its parts are O(1/nu)
        rng = np.random.default_rng(5)
        with mp.workdps(40):
            for _ in range(30):
                nu = math.exp(rng.uniform(math.log(0.01), math.log(50.0)))
                x = math.exp(rng.uniform(math.log(1e-6), math.log(_x_switch(nu))))
                got = _k_dk_series(nu, x, dnu=True)[2:]
                k = lambda n: mp.besselk(mp.mpc(0, n), x).real
                dk = lambda n: -(mp.besselk(mp.mpc(-1, n), x) + mp.besselk(mp.mpc(1, n), x)).real / 2
                amp = abs_gamma_imag(nu) * (1.0 + abs(math.log(x / 2.0)) + 1.0 / nu)
                for value, ref, scale in zip(got, (mp.diff(k, nu), x * mp.diff(dk, nu)),
                                             (amp, amp * (1.0 + nu + x))):
                    assert abs(float(value) - ref) <= 2e-13 * scale, (nu, x)

    @pytest.mark.parametrize("x", [2.5, 0.0, -1.0, math.nan, math.inf, 5e-324])
    def test_abscissa_out_of_range_rejected(self, x):
        # 2.5: beyond the switch at nu = 1; 5e-324: x/2 underflows
        with pytest.raises(RangeError):
            _k_dk_series(1.0, np.array([0.5, x]))

    def test_subnormal_abscissa_within_the_scalar_estimate(self):
        # K' ~ 1/x is beyond the floats at x = 1e-310, and x K' is not; refused while
        # K' was formed first.  Measured: 0.09 and 0.16 of _k_eval's estimates
        x = 1e-310
        k, xdk = _k_dk_series(1.0, x)
        k_ref, dk_ref = oracles.k_dk_besselk_ref(1.0, x, dps=60)
        (_k, k_err), (_xdk, xdk_err) = _k_eval(1.0, x)[0]
        assert abs(k - k_ref) <= k_err
        assert abs(xdk - x * dk_ref) <= xdk_err

    def test_beyond_the_switch_rejected_elementwise(self):
        _k_dk_series(np.array([1.0, 10.0]), np.array([2.0, 10.0]))  # each at its own switch
        with pytest.raises(RangeError):
            _k_dk_series(np.array([1.0, 10.0]), np.array([2.0, 10.5]))
        with pytest.raises(RangeError):
            _k_dk_series(np.array([1.0, 10.0]), np.array([10.0, 2.0]))

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_same_abscissa_error_as_the_scalar_path(self, x):
        with pytest.raises(RangeError) as scalar:
            besselk_imag(1.0, x)
        for evaluate in (lambda: _k_dk_series(1.0, np.array([0.5, x])),
                         lambda: _k_values([1.0], np.array([0.5, x]))):
            with pytest.raises(RangeError) as array:
                evaluate()
            assert str(array.value) == str(scalar.value)

    def test_split_parts_add_up_to_the_whole(self):
        # K0 + dK = K and x K0' + x dK' = x K' of the same call without split, to a few
        # roundings of |Gamma(i nu)| (measured: 1.1 eps and 1.5 eps).  Half the abscissae
        # lie above 1e-3, where the rests are large enough that a relative error of 1e-9
        # in them, or a dropped k = 1 term, shows against the bound
        eps = np.finfo(float).eps
        rng = np.random.default_rng(2400)
        for i in range(400):
            nu = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
            lo = 1e-300 if i % 2 else 1e-3
            x = math.exp(rng.uniform(math.log(lo), math.log(_x_switch(nu))))
            k, xdk = _k_dk_series(nu, x)
            k0, xk0, rest, x_rest = _k_dk_series(nu, x, split=True)
            g = abs_gamma_imag(nu)
            assert abs(k0 + rest - k) <= 4.0 * eps * g, (nu, x)
            assert abs(xk0 + x_rest - xdk) <= 4.0 * eps * g * (1.0 + nu), (nu, x)


# orders on both sides of the switch, a pair whose switches differ (2 and 15), nu = 0 and a
# subnormal order; abscissae on both paths, on the series path alone and on the integral path alone
SET_UP_ORDERS = [[0.3, 15.0], [1.0], [0.0, 2.5], [1e-310, 40.0], [50.0, 0.2, 7.0], [1e-3, 0.0]]
SET_UP_SPANS = [(1e-5, 60.0), (1e-5, 2.0), (31.0, 300.0)]


def set_up_grid(seed, n):
    """n seeded (orders, abscissae) over SET_UP_ORDERS x SET_UP_SPANS."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        lo, hi = SET_UP_SPANS[i % len(SET_UP_SPANS)]
        x = np.exp(rng.uniform(math.log(lo), math.log(hi), int(rng.integers(1, 120))))
        yield SET_UP_ORDERS[(i // len(SET_UP_SPANS)) % len(SET_UP_ORDERS)], x


class TestPerCallSetUp:
    """Each order's series set-up once per call keeps every bit of the set-up once per sweep."""

    def test_k_values_bitwise_equal_to_the_per_sweep_evaluation(self):
        paths = set()
        for nus, x in set_up_grid(22, 180):
            values = _k_values(nus, x)
            assert values.tobytes() == sweep_reference.per_sweep_k_values(nus, x).tobytes(), (nus, x)
            for nu in nus:
                switch = _x_switch(nu) if nu >= _TINY else 0.0
                paths.add((bool((x <= switch).any()), bool((x > switch).any())))
        assert paths == {(True, True), (True, False), (False, True)}  # mixed, series, integral

    def test_one_set_up_serves_narrower_sweeps(self):
        # kernel_quadrature makes the set-up at min(switch, U), beyond the x of most sweeps, so
        # its c_k can outnumber those the sweep's own largest x would count.  The extra terms
        # lie below 1e-18 of the sum, so such a value is allowed 2 ulp; on this grid none moves.
        counts_differ = 0
        for nus, x in set_up_grid(23, 180):
            values = _k_sweeps(nus, lambda switch: switch)(x)  # set up at the widest
            ref = sweep_reference.per_sweep_k_values(nus, x)
            for j, nu in enumerate(nus):
                switch = _x_switch(nu) if nu >= _TINY else 0.0
                rows = x <= switch
                counts = [sweep_reference.series_count(nu, a) for a in (switch, x[rows].max(initial=0.0))]
                if rows.any() and counts[0] != counts[1]:
                    counts_differ += 1
                    assert np.all(np.abs(values[:, j] - ref[:, j]) <= 2.0 * np.spacing(np.abs(ref[:, j])))
                else:
                    assert values[:, j].tobytes() == ref[:, j].tobytes(), (nus, x)
        assert counts_differ >= 50

    def test_orders_below_tiny_get_no_series_set_up(self, monkeypatch):
        calls = []
        run = bessel_im._series_run
        monkeypatch.setattr(bessel_im, "_series_run", lambda nu, h2: calls.append(nu) or run(nu, h2))
        nus, x = [0.0, 1e-310, 1.0], np.array([0.5, 3.0])
        sweep = _k_sweeps(nus, lambda switch: switch)
        assert calls == [1.0]
        assert sweep(x).tobytes() == sweep_reference.per_sweep_k_values(nus, x).tobytes()
        assert calls == [1.0]  # the sweep makes none


class TestNoOverflowWarningAtHugeX:
    """x cosh t beyond the floats: the values of a rule whose every node is 0, and no warning."""

    def test_scalar_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu in (1.0, 0.0):
                k, dk = besselk_imag(nu, 1.7e308), besselk_dx(nu, 1.7e308)
                assert (repr(k.value), repr(dk.value)) == ("0.0", "-0.0")
                assert k.abs_err_estimate == dk.abs_err_estimate == 0.0

    def test_values_of_the_rule_without_its_overflow(self):
        # beyond x ~ 745.2, e^{-x cosh t} <= e^{-x} is 0 at every node, whatever x cosh t is
        for x in (746.0, 1e4, 1e300, 1.7e308):
            for d in (0, 1, 2):
                value, err = _k_integral(1.3, x, d)
                assert (repr(value), err) == ("-0.0" if d == 1 else "0.0", 0.0), (x, d)
        x = np.array([3.0, 800.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _k_values([1.0, 0.0], x)
        with np.errstate(over="ignore"):
            ref, _n = pass_per_level_trapezoid([1.0, 0.0], x)
        assert values.tobytes() == ref.tobytes()
        assert values[1:].tolist() == [[0.0, 0.0]] * 2


class TestSubnormalAbscissa:
    @pytest.mark.parametrize("f", [besselk_imag, besselk_dx, besseli_imag, besselk_smallx_approx])
    def test_series_path_refused_where_half_x_underflows(self, f):
        with pytest.raises(RangeError):
            f(1.0, 5e-324)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 2.5e-307])
    def test_integral_path_refused_where_46_over_x_overflows(self, x):
        for f in (besselk_imag, besselk_dx):
            with pytest.raises(RangeError):
                f(0.0, x)
        with pytest.raises(RangeError):
            _k_values([0.0], np.array([1.0, x]))

    def test_array_series_refused_where_half_x_underflows(self):
        with pytest.raises(RangeError):
            _k_values([1.0], np.array([0.5, 5e-324]))

    def test_derivative_overflow_refused(self):
        # K'_i(1e-310) is of size 1/x, beyond the largest float
        with pytest.raises(RangeError):
            besselk_dx(1.0, 1e-310)

    def test_working_subnormal_inputs_kept(self):
        for nu, x in [(1.0, 1e-310), (0.0, 1e-300)]:
            ref = oracles.k_besselk_ref(nu, x)
            assert besselk_imag(nu, x).value == pytest.approx(ref, rel=1e-12), (nu, x)
            assert _k_values([nu], np.array([x]))[0, 0] == pytest.approx(ref, rel=1e-12), (nu, x)
        assert besselk_dx(0.0, 1e-300).value == pytest.approx(-1e300, rel=1e-12)  # -K_1(x) ~ -1/x


class TestSubnormalOrder:
    # below the smallest normal float the I-combination is a 0/0 form in binary64,
    # as at nu = 0; cos(nu t) = 1 on the integral path, so K is K_0 bitwise
    XS = [1e-300, 1e-3, 1.0, 1.9]

    @pytest.mark.parametrize("nu", [5e-324, 1e-310, -1e-310])
    def test_values_are_those_of_order_zero(self, nu):
        for x in self.XS:
            for f in (besselk_imag, besselk_dx):
                assert f(nu, x) == f(0.0, x), (f.__name__, nu, x)
        assert besselk_imag(nu, 1.0).value == pytest.approx(0.42102443824070834, rel=1e-15)
        values = _k_values([nu, 0.0, 1.0], np.array(self.XS + [3.0]))
        assert np.array_equal(values[:, 0], values[:, 1])

    @pytest.mark.parametrize("nu", [5e-324, 1e-310])
    def test_series_path_refuses_them_as_order_zero(self, nu):
        with pytest.raises(DomainError) as scalar:
            besselk_imag(nu, 1.0, method="series")
        with pytest.raises(DomainError) as zero:
            besselk_imag(0.0, 1.0, method="series")
        assert str(scalar.value) == str(zero.value)
        with pytest.raises(DomainError) as array:
            _k_dk_series(np.array([nu, 1.0]), 1.0)
        with pytest.raises(DomainError) as array_zero:
            _k_dk_series(np.array([0.0, 1.0]), 1.0)
        assert str(array.value) == str(array_zero.value)

    @pytest.mark.parametrize("nu, x", [(5e-324, 1.0), (1e-310, 0.5), (-1e-310, 0.5)])
    def test_combination_residue_refuses_them_as_order_zero(self, nu, x):
        # sinh(pi nu) is subnormal there; the combination's residue read 0.0 from a
        # combination whose real part is -1.0
        with pytest.raises(DomainError) as subnormal:
            combination_imag_residue(nu, x)
        with pytest.raises(DomainError) as zero:
            combination_imag_residue(0.0, x)
        assert str(subnormal.value) == str(zero.value)


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
        assert within == 60

    def test_grid_within_estimate_against_mpmath(self):
        # c_0 = 1/Gamma(1 + i nu) carries a rounded phase of ~nu ln nu: at x = 2,
        # where nu ln(x/2) vanishes, it alone sets the error (up to 9 times an
        # estimate without it, at 7 K and 5 K' values of this grid)
        for nu in np.geomspace(0.1, 50.0, 14):
            for x in np.geomspace(1e-3, 2.0, 6):
                nu, x = float(nu), float(x)
                k_ref, dk_ref = oracles.k_dk_besselk_ref(nu, x, dps=40)
                k, dk = besselk_imag(nu, x), besselk_dx(nu, x)
                assert abs(k.value - k_ref) <= k.abs_err_estimate, (nu, x)
                assert abs(dk.value - dk_ref) <= dk.abs_err_estimate, (nu, x)


class TestOrderTypes:
    @pytest.mark.parametrize("kind", [int, np.int64, np.float64])
    def test_same_bits_and_python_floats(self, kind):
        for f, nu, x in [(besselk_imag, 1, 0.5), (besselk_dx, 2, 1.0), (besseli_imag, 1, 0.5),
                         (besselk_imag, 3, 5.0)]:
            got, want = f(kind(nu), x), f(float(nu), x)
            assert got == want, (f, nu, x)
            assert type(got.value) is type(want.value) and type(got.abs_err_estimate) is float

    @pytest.mark.parametrize("kind", [int, np.int64, np.float64])
    def test_kernels_take_them(self, kind):
        want = kernel_boundary(PairSpec(1.0, 2.0, 0.5)).value
        assert kernel_boundary(PairSpec(kind(1), kind(2), 0.5)).value == want
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.15)
        want = weak_limit_test(1.0, [0.05, 1e-5], phi).smeared_values
        assert weak_limit_test(kind(1), [0.05, 1e-5], phi).smeared_values == want

    @pytest.mark.parametrize("kind", [int, np.int64, np.float64])
    def test_kernel_reports_hold_python_floats(self, kind):
        # the reports must serialize as they are, as the CLI's JSON does
        assert type(kernel_boundary(PairSpec(kind(1), 2.0, 0.5)).value) is float
        phi = TestFunctionSpec("gaussian-bump", kind(1), 0.1)
        report = dataclasses.asdict(weak_limit_test(kind(1), [1e-2, 1e-4], phi))
        assert type(report["nu"]) is float
        json.dumps(report)


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

    def test_envelope_refuses_a_subnormal_order_as_order_zero(self):
        # the array series refuses it, with the message of nu = 0
        with pytest.raises(DomainError, match="nu = 0 not supported"):
            smallx_error_envelope(5e-324, 1e-3)


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

    @pytest.mark.parametrize(
        "nu, x, family",
        [
            (1.0, 1e-200, "K"),  # x * x underflowed: ZeroDivisionError
            (1.0, 1e-300, "K"),
            (1.0, 1e-200, "I"),
            (0.0, 1e-160, "K"),  # (cosh t)^2 overflowed: a warning, then OverflowError
            (0.0, 1e-200, "K"),
            (1.0, 745.0, "K"),  # K underflowed to 0: ZeroDivisionError
            (3.0, 750.0, "K"),
            (1.0, 1e-160, "I"),  # nan
            (1.0, 700.0, "I"),
            (1.0, 30.5, "I"),  # beyond besseli_imag's range too
            (1.0, 1.7e308, "K"),
        ],
    )
    def test_refused_where_terms_leave_the_floats(self, nu, x, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                ode_residual(nu, x, family)

    def test_finite_or_refused_on_every_float(self):
        rng = np.random.default_rng(150)
        xs = np.concatenate([10.0 ** rng.uniform(-323.0, 308.0, 120), [1e-150, 700.0, X_SERIES_MAX]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in ("K", "I"):
                for nu in (0.0, 1e-5, 1.0, 50.0):
                    for x in xs:
                        try:
                            assert math.isfinite(ode_residual(nu, float(x), family)), (nu, x)
                        except RangeError:
                            assert not 1e-150 <= x <= (X_SERIES_MAX if family == "I" else 700.0)

    def test_order_zero_at_small_x(self):
        # x K'' and K' are each about 1/x there and cancel; normalized by (nu^2/x + x)|K|
        # alone the residual read 8.2e2 at x = 1e-10 and 1.0e183 at x = 1e-100
        for nu in (0.0, 0.1, 1.0, 10.0):
            for x in np.geomspace(1e-150, 50.0, 60):
                assert ode_residual(nu, float(x)) <= 1e-10, (nu, x)

    @pytest.mark.parametrize("family, top", [("K", 700.0), ("I", X_SERIES_MAX)])
    def test_edges_of_the_range(self, family, top):
        for nu in (0.1, 1.0, 50.0):
            for x in (1e-150, top):
                assert ode_residual(nu, x, family) <= 1e-6, (nu, x)
