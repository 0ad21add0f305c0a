import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sc

from macdonald import (
    ConvergenceError,
    DomainError,
    NearDiagonalError,
    PairSpec,
    QuadratureSpec,
    RangeError,
    TestFunctionSpec,
    arg_gamma_imag,
    asymptotic_envelope,
    besselk_dx,
    besselk_imag,
    delta_model,
    diagonal_limit,
    kernel_asymptotic,
    kernel_boundary,
    kernel_quadrature,
    kl_weight,
    phase_function,
    smallx_error_envelope,
    weak_limit_test,
)

from macdonald import bessel_im, ortho_verify

import oracles
import sweep_reference


def wronskian(nu, nup, xi):
    """The boundary term and its error estimate from the public K and K' and their estimates."""
    (k1, e1), (d1, f1), (k2, e2), (d2, f2) = (
        (fv.value, fv.abs_err_estimate)
        for order in (nu, nup)
        for fv in (besselk_imag(order, xi), besselk_dx(order, xi))
    )
    den = nu * nu - nup * nup
    value = -xi * (k1 * d2 - k2 * d1) / den
    products = abs(d2) * e1 + abs(k1) * f2 + abs(d1) * e2 + abs(k2) * f1
    err = xi * (products + 4.0 * sys.float_info.epsilon * (abs(k1 * d2) + abs(k2 * d1))) / abs(den)
    return value, err


REFERENCE_PAIRS = [(1.0, 2.0, 0.1), (0.7, 0.75, 1e-4), (2.3, 1.1, 1.5), (5.0, 3.0, 3.0)]


class TestKernelBoundary:
    def test_swap_symmetry_bitwise(self):
        a = kernel_boundary(PairSpec(1.0, 2.0, 0.1)).value
        b = kernel_boundary(PairSpec(2.0, 1.0, 0.1)).value
        assert a == b

    def test_deep_tail_bound(self):
        v = kernel_boundary(PairSpec(1.0, 2.0, 20.0)).value
        assert abs(v) <= (math.pi / 40.0) * math.exp(-40.0)

    def test_matches_quadrature(self):
        b = kernel_boundary(PairSpec(1.0, 2.0, 0.1)).value
        q = kernel_quadrature(PairSpec(1.0, 2.0, 0.1)).value
        assert abs(b - q) <= 1e-8

    def test_near_diagonal_redirected(self):
        with pytest.raises(NearDiagonalError):
            kernel_boundary(PairSpec(1.0, 1.0 + 1e-9, 0.1))

    def test_equals_wronskian_of_public_functions(self):
        for nu, nup, xi in REFERENCE_PAIRS:
            kv = kernel_boundary(PairSpec(nu, nup, xi))
            assert (kv.value, kv.abs_err_estimate) == wronskian(nu, nup, xi)

    def test_estimate_bounds_the_error(self):
        # five integral-path pairs, where a fixed 1e-11 relative estimate fell short by
        # 1.2x to 4.9e10x, and four on the series path
        for (nu, nup, xi), ref in oracles.BOUNDARY.items():
            kv = kernel_boundary(PairSpec(nu, nup, xi))
            assert abs(kv.value - ref) <= kv.abs_err_estimate, (nu, nup, xi)

    def test_boundary_reference_spot_check(self):
        # recompute one frozen reference at 60 digits
        assert float(oracles.boundary_ref(10.0, 12.0, 20.0)) == pytest.approx(
            oracles.BOUNDARY[(10.0, 12.0, 20.0)], rel=1e-15
        )


class TestSeriesCount:
    @pytest.fixture
    def k_eval_calls(self, monkeypatch):
        # the scalar core, as kernel_boundary reaches it and as the public K functions do
        calls = []
        k_eval = bessel_im._k_eval
        for module in (bessel_im, ortho_verify):
            monkeypatch.setattr(
                module, "_k_eval", lambda nu, x, *a: calls.append(nu) or k_eval(nu, x, *a)
            )
        return calls

    @pytest.fixture
    def series_calls(self, monkeypatch):
        # the orders of every array K/K' call that ortho_verify makes
        calls = []
        series = ortho_verify._k_dk_series
        monkeypatch.setattr(
            ortho_verify,
            "_k_dk_series",
            lambda nu, x, **kw: calls.append(np.array(nu)) or series(nu, x, **kw),
        )
        return calls

    def test_boundary_sums_one_series_per_order(self, k_eval_calls):
        kernel_boundary(PairSpec(1.0, 2.0, 0.1))
        assert k_eval_calls == [1.0, 2.0]

    def test_smeared_integrand_sums_one_series(self, k_eval_calls, series_calls, monkeypatch):
        # nu outside the support of phi, so every node goes through the boundary term:
        # one array call for K and K' at nu, then one per Gauss-Kronrod sweep, over
        # all of its nu' nodes; the scalar core never runs
        sweeps = []
        gauss_kronrod = ortho_verify._gauss_kronrod
        monkeypatch.setattr(
            ortho_verify,
            "_gauss_kronrod",
            lambda f, *a: gauss_kronrod(lambda v: sweeps.append(v) or f(v), *a),
        )
        ortho_verify._smeared_kernel(1.0, [1e-2], TestFunctionSpec("gaussian-bump", 1.5, 0.05))
        assert k_eval_calls == []
        assert series_calls[0].tolist() == 1.0
        assert len(series_calls) - 1 == len(sweeps) >= 1
        for nodes, orders in zip(sweeps, series_calls[1:]):
            assert np.array_equal(orders, nodes)

    def test_smeared_kernel_evaluates_the_fixed_order_once(self, k_eval_calls, series_calls):
        # nu inside the support of phi: one array call at nu alone, whose K and K' serve
        # the sweeps and whose nu-derivatives give the diagonal limit
        nu = 1.0
        ortho_verify._smeared_kernel(nu, [1e-2], TestFunctionSpec("gaussian-bump", 1.0, 0.05))
        assert k_eval_calls == []
        assert series_calls[0].tolist() == nu
        assert len(series_calls) >= 2 and not any(np.any(c == nu) for c in series_calls[1:])

    def test_smeared_kernel_sums_one_series_per_sweep_for_all_cutoffs(
        self, k_eval_calls, monkeypatch
    ):
        # nu inside the support: one call at nu with the nu-derivatives for all
        # cutoffs, then one quadrature whose every sweep takes K and K' at all of
        # its nodes and all cutoffs from one array call
        nu, xis = 1.0, [1e-2, 1e-3, 1e-4, 1e-6]
        calls, sweeps = [], []
        series = ortho_verify._k_dk_series
        monkeypatch.setattr(
            ortho_verify,
            "_k_dk_series",
            lambda nu, x, dnu=False: calls.append((np.array(nu), np.array(x), dnu))
            or series(nu, x, dnu),
        )
        gauss_kronrod = ortho_verify._gauss_kronrod
        monkeypatch.setattr(
            ortho_verify,
            "_gauss_kronrod",
            lambda f, *a: sweeps.append([]) or gauss_kronrod(
                lambda v: sweeps[-1].append(v) or f(v), *a
            ),
        )
        values = ortho_verify._smeared_kernel(nu, xis, TestFunctionSpec("gaussian-bump", 1.0, 0.2))
        assert len(values) == len(xis)
        assert k_eval_calls == []
        (orders, x, dnu), *per_sweep = calls
        assert orders.tolist() == nu and dnu
        assert x.shape == (len(xis), 1) and x.ravel().tolist() == xis
        assert len(sweeps) == 1 and len(per_sweep) == len(sweeps[0]) >= 1
        for nodes, (nup, x, dnu) in zip(sweeps[0], per_sweep):
            assert np.array_equal(nup, nodes) and not dnu
            assert x.shape == (len(xis), 1) and x.ravel().tolist() == xis

    def test_diagonal_limit_sums_one_series(self, k_eval_calls, series_calls):
        nu, xi = 1.0, 0.3
        diagonal_limit(nu, xi)
        assert k_eval_calls == []
        assert [c.tolist() for c in series_calls] == [nu]

    def test_k_eval_takes_one_abs_gamma_for_every_derivative_order(self, monkeypatch):
        calls = []
        abs_gamma = bessel_im.abs_gamma_imag
        monkeypatch.setattr(bessel_im, "abs_gamma_imag", lambda nu: calls.append(nu) or abs_gamma(nu))
        values, tag = bessel_im._k_eval(1.3, 0.7, orders=(0, 1, 2))
        assert tag == "series-combination" and len(values) == 3
        assert calls == [1.3]

    def test_quadrature_checks_each_order_once(self, monkeypatch):
        calls = []
        check = bessel_im._check_order
        for module in (bessel_im, ortho_verify):
            monkeypatch.setattr(module, "_check_order", lambda nu, *a: calls.append(nu) or check(nu, *a))
        kernel_quadrature(PairSpec(1.0, 2.0, 0.1))
        assert calls == [1.0, 2.0]


class TestKernelQuadrature:
    def test_diagonal_nonnegative(self):
        assert kernel_quadrature(PairSpec(1.0, 1.0, 0.5)).value >= 0.0

    def test_tail_regime(self):
        for nu, nup in [(0.5, 1.0), (1.0, 3.0)]:
            v = kernel_quadrature(PairSpec(nu, nup, 10.0)).value
            assert abs(v) <= (math.pi / 40.0) * math.exp(-20.0)

    def test_identity_grid(self):
        # the integration-by-parts identity, over a representative grid
        for nu, nup in [(0.5, 1.0), (1.0, 5.0), (2.0, 5.0)]:
            for xi in (1e-3, 0.1, 1.0):
                pair = PairSpec(nu, nup, xi)
                b = kernel_boundary(pair).value
                q = kernel_quadrature(pair).value
                assert abs(b - q) <= 1e-8 + 1e-8 * abs(b), (nu, nup, xi)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore:.*roundoff error.*")
    def test_tight_budget_raises(self):
        spec = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16)
        with pytest.raises(ConvergenceError) as exc_info:
            kernel_quadrature(PairSpec(1.0, 2.0, 1e-3), spec)
        assert exc_info.value.estimate is not None


class TestSingleSweep:
    @pytest.mark.parametrize("pair", [(1.0, 2.0, 1e-3), (0.5, 1.0, 1.5), (5.0, 3.0, 3.0)])
    def test_one_gauss_kronrod_call(self, pair, monkeypatch):
        # below and above x = 2, and from a cutoff beyond it: one sweep over u = ln x
        calls = []
        gauss_kronrod = ortho_verify._gauss_kronrod
        monkeypatch.setattr(
            ortho_verify, "_gauss_kronrod", lambda *a: calls.append(a) or gauss_kronrod(*a)
        )
        kernel_quadrature(PairSpec(*pair))
        assert len(calls) == 1

    def test_first_partition_follows_the_oscillation(self):
        # one panel per half-period pi/omega, however many: 955 here, past the
        # 400 bisections its callers allow
        edges = ortho_verify._panel_edges([0.0, 1000.0], 3.0)
        assert edges.size - 1 == math.ceil(3.0 * 1000.0 / math.pi) > 400
        edges = ortho_verify._panel_edges([0.0, 1.0, 700.0], 2.0)
        assert edges.size - 1 == 1 + math.ceil(2.0 * 699.0 / math.pi)
        assert edges[0] == 0.0 and 1.0 in edges and edges[-1] == 700.0

    def test_components_each_meet_their_own_tolerance(self):
        # the panels are shared, the tolerances are not: a large smooth component
        # must not accept panels that a small oscillating one still needs
        def f(v):
            return np.stack([1e6 * np.cos(v), 1e-3 * np.cos(40.0 * v)])

        values, errs = ortho_verify._gauss_kronrod(f, np.array([0.0, 1.0]), 1e-12, 1e-10)
        exact = [1e6 * math.sin(1.0), 1e-3 * math.sin(40.0) / 40.0]
        for value, err, ref in zip(values, errs, exact):
            assert type(value) is float and type(err) is float
            assert err <= max(1e-12, 1e-10 * abs(value))
            assert abs(value - ref) <= max(1e-12, 1e-10 * abs(ref))
        (alone,), _ = ortho_verify._gauss_kronrod(
            lambda v: f(v)[0], np.array([0.0, 1.0]), 1e-12, 1e-10
        )
        assert abs(values[0] - alone) <= 1e-10 * abs(alone)

    def test_tiny_cutoff_converges(self):
        pair = PairSpec(1.0, 2.0, 1e-300)
        assert abs(kernel_quadrature(pair).value - kernel_boundary(pair).value) <= 1e-8

    def test_huge_orders_refused_before_the_sweep(self, monkeypatch):
        # a first partition of (nu + nu') ln(U/xi) / pi panels must never be laid for them
        monkeypatch.setattr(ortho_verify, "_panel_edges", None)
        with pytest.raises(DomainError):
            kernel_quadrature(PairSpec(1e300, 1.0, 0.1))

    def test_orders_refused_before_the_upper_cutoff(self):
        with pytest.raises(DomainError, match="exceeds supported bound"):
            kernel_quadrature(PairSpec(1.0, 60.0, 0.1), QuadratureSpec(upper=0.05))


def same_outcome(f, g):
    """repr of what f() and g() return or raise, for a bitwise comparison of the two."""
    out = []
    for h in (f, g):
        try:
            kv = h()
            out.append(("value", repr(kv.value), repr(kv.abs_err_estimate)))
        except Exception as exc:  # a refusal must match in type and message
            out.append(("error", type(exc).__name__, str(exc)))
    return out[0] == out[1], out


class TestQuadratureSetUpOncePerCall:
    def test_bitwise_equal_to_a_set_up_per_sweep(self):
        rng = np.random.default_rng(2441)
        pairs = [(0.2, 0.1, 1e-3), (0.3, 15.0, 0.5), (1e-3, 1.0, 0.1), (1e-310, 0.5, 1e-4),
                 (1.0, 2.0, 1e-300), (10.0, 20.0, 1e-300), (40.0, 45.0, 3.0), (60.0, 1.0, 0.1)]
        for _ in range(60):  # the kernel_pairs distribution
            nu = math.exp(rng.uniform(math.log(0.2), math.log(10.0)))
            xi = math.exp(rng.uniform(math.log(1e-6), math.log(2.0)))
            pairs.append((nu, nu * 2.0 ** rng.uniform(-1.0, 1.0), xi))
        # the default, a cutoff below some switches, and one that refuses most pairs
        specs = [QuadratureSpec(), QuadratureSpec(upper=1.5), QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16)]
        for i, (nu, nup, xi) in enumerate(pairs):
            pair, spec = PairSpec(nu, nup, xi), specs[i % len(specs)]
            same, out = same_outcome(
                lambda: kernel_quadrature(pair, spec),
                lambda: sweep_reference.per_sweep_quadrature(pair, spec),
            )
            assert same, (pair, spec, out)

    def test_one_set_up_per_order(self, monkeypatch):
        calls = {"sweeps": 0, "_series_run": [], "_arg_gamma_one_plus_imag": []}
        for name in ("_series_run", "_arg_gamma_one_plus_imag"):
            f = getattr(bessel_im, name)
            monkeypatch.setattr(
                bessel_im, name, lambda nu, *a, f=f, name=name: calls[name].append(nu) or f(nu, *a)
            )
        gauss_kronrod = ortho_verify._gauss_kronrod

        def counted(f, *a):
            def g(u):
                calls["sweeps"] += 1
                return f(u)

            return gauss_kronrod(g, *a)

        monkeypatch.setattr(ortho_verify, "_gauss_kronrod", counted)
        kernel_quadrature(PairSpec(0.2, 0.1, 1e-3))
        assert calls["sweeps"] == 4
        assert calls["_series_run"] == calls["_arg_gamma_one_plus_imag"] == [0.2, 0.1]

    def test_no_overflow_warning_at_a_huge_cutoff(self):
        # nodes up to x ~ 1e308, where x cosh t leaves the floats; all of them beyond
        # x ~ 745.2 add exactly 0, as they did
        pair, spec = PairSpec(1.0, 2.0, 0.1), QuadratureSpec(upper=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kv = kernel_quadrature(pair, spec)
        with np.errstate(over="ignore"):
            ref = sweep_reference.per_sweep_quadrature(pair, spec)
        assert (repr(kv.value), repr(kv.abs_err_estimate)) == (repr(ref.value), repr(ref.abs_err_estimate))


def quad_reference(pair, quad=QuadratureSpec()):
    """kernel_quadrature as scipy quad over scalar K products: the same parts and tolerances."""
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    upper = quad.upper if quad.upper is not None else ortho_verify._tail_cutoff(quad.abs_tol)
    if upper <= xi:
        raise DomainError("upper cutoff must exceed xi")

    def product(x):
        return besselk_imag(nu, x).value * besselk_imag(nup, x).value

    total = err = 0.0
    tol = dict(epsabs=0.5 * quad.abs_tol, epsrel=quad.rel_tol)
    mid = min(2.0, upper)
    if xi < mid:
        f = lambda u: product(math.exp(u))
        v, e = integrate.quad(f, math.log(xi), math.log(mid), limit=400, **tol)
        total, err = total + v, err + e
    else:
        mid = xi
    if upper > mid:
        v, e = integrate.quad(lambda x: product(x) / x, mid, upper, limit=200, **tol)
        total, err = total + v, err + e
    err += (math.pi / (4.0 * upper * upper)) * math.exp(-2.0 * upper)
    if err > 10.0 * (quad.abs_tol + quad.rel_tol * abs(total)):
        raise ConvergenceError("quadrature error estimate exceeds requested tolerance", estimate=total)
    return total


class TestQuadratureRegression:
    def test_matches_scalar_quad_reference(self):
        # the kernel_pairs benchmark's distribution of (nu, nu', xi)
        rng = np.random.default_rng(5)
        for _ in range(20):
            nu = math.exp(rng.uniform(math.log(0.2), math.log(10.0)))
            nup = nu * 2.0 ** rng.uniform(-1.0, 1.0)
            pair = PairSpec(nu, nup, math.exp(rng.uniform(math.log(1e-6), math.log(2.0))))
            kv = kernel_quadrature(pair)
            assert abs(kv.value - quad_reference(pair)) <= 1e-12, pair

    def test_returns_python_floats(self):
        # np.float64 would carry np.bool_ comparisons into the CLI's JSON
        kv = kernel_quadrature(PairSpec(1.0, 2.0, 0.1))
        assert type(kv.value) is float and type(kv.abs_err_estimate) is float

    @pytest.mark.parametrize(
        "pair, spec",
        [
            (PairSpec(60.0, 1.0, 0.1), QuadratureSpec()),
            (PairSpec(1.0, 60.0, 0.1), QuadratureSpec()),
            (PairSpec(1.0, 2.0, 0.1), QuadratureSpec(upper=0.05)),
        ],
    )
    def test_same_refusals_as_reference(self, pair, spec):
        with pytest.raises(DomainError):
            quad_reference(pair, spec)
        with pytest.raises(DomainError):
            kernel_quadrature(pair, spec)


class TestKernelAsymptotic:
    def test_prefactor_on_diagonal_form(self):
        # at nu = nu' = 1 the prefactor reduces to pi/(2 sinh pi); probe it
        # through the reflected term of a nearly diagonal pair
        pair = PairSpec(1.0, 1.0 + 1e-6, 1e-3)
        lg = math.log(pair.xi / 2.0)
        g1 = arg_gamma_imag(pair.nu)
        g2 = arg_gamma_imag(pair.nu_prime)
        v = kernel_asymptotic(pair).value
        first = math.sin(-(pair.nu - pair.nu_prime) * lg + g1 - g2) / (pair.nu - pair.nu_prime)
        second = math.sin(-(pair.nu + pair.nu_prime) * lg + g1 + g2) / (pair.nu + pair.nu_prime)
        prefactor = v / (first + second)
        assert prefactor == pytest.approx(math.pi / (2.0 * math.sinh(math.pi)), rel=1e-4)

    def test_swap_symmetry(self):
        a = kernel_asymptotic(PairSpec(1.0, 1.5, 1e-3)).value
        b = kernel_asymptotic(PairSpec(1.5, 1.0, 1e-3)).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_agrees_with_boundary_at_small_xi(self):
        pair = PairSpec(1.0, 1.5, 1e-4)
        diff = abs(kernel_asymptotic(pair).value - kernel_boundary(pair).value)
        assert diff <= 20.0 * 1e-8  # C * xi^2 with a generous constant

    # The per-sample loop below fits differences of size xi^2 between O(1)
    # kernels, so its rounding noise is large: it is 3.7e-5 off the 30-digit
    # envelope at (0.5, 0.6, 5e-4) and 3e-7 or less on the other cases; its
    # bound leaves a factor of about 2.7 over the worst.  asymptotic_envelope
    # sums the O(xi^2) discrepancy from the series terms beyond the first and
    # is within 3e-12 on these cases and 5e-8 at (0.01, 0.02, 1e-3).
    PER_SAMPLE_REL_BOUND = 1e-4
    ENVELOPE_REL_BOUND = 1e-6

    def test_envelope_within_reference_bound(self):
        for (nu, nup, xi), ref in oracles.ENVELOPE.items():
            half_octave = 0.5 * math.log(2.0)
            u = np.linspace(math.log(xi) - half_octave, math.log(xi) + half_octave, 48)
            diffs = []
            for s in np.exp(u):
                pair = PairSpec(nu, nup, float(s))
                diffs.append(kernel_asymptotic(pair).value - kernel_boundary(pair).value)
            y = np.asarray(diffs) / np.exp(2.0 * u)
            cols = [g(f * u) for f in (abs(nu - nup), nu + nup) for g in (np.cos, np.sin)]
            coeff, *_ = np.linalg.lstsq(np.vstack(cols).T, y, rcond=None)
            per_sample = xi * xi * math.sqrt(float(np.dot(coeff, coeff)))
            assert abs(per_sample - ref) <= self.PER_SAMPLE_REL_BOUND * ref, (nu, nup, xi)
            envelope = asymptotic_envelope(nu, nup, xi)
            assert abs(envelope - ref) <= self.ENVELOPE_REL_BOUND * ref, (nu, nup, xi)

    def test_envelope_at_small_orders(self):
        # subtracting the sinc form and the boundary term, each far larger than this
        # envelope, was 15 % off here
        for (nu, nup, xi), ref in oracles.ENVELOPE_SMALL_ORDERS.items():
            envelope = asymptotic_envelope(nu, nup, xi)
            assert abs(envelope - ref) <= self.ENVELOPE_REL_BOUND * ref, (nu, nup, xi)

    def test_envelope_over_xi_squared_is_flat_down_to_tiny_cutoffs(self):
        scaled = [asymptotic_envelope(1.0, 1.5, xi) / xi**2 for xi in (1e-8, 1e-50, 1e-100, 1e-150)]
        assert all(abs(s / scaled[0] - 1.0) <= 1e-9 for s in scaled), scaled

    def test_sinc_form_refuses_vanishing_half_cutoff(self):
        # xi/2 rounds to 0 at the smallest subnormal, as on both K paths
        with pytest.raises(RangeError):
            kernel_asymptotic(PairSpec(1.0, 1.5, 5e-324))

    def test_envelope_reference_spot_check(self):
        # recompute one frozen envelope at 30 digits
        assert oracles.envelope_ref(1.0, 1.5, 1e-3) == pytest.approx(
            oracles.ENVELOPE[(1.0, 1.5, 1e-3)], rel=1e-13
        )

    @pytest.mark.parametrize(
        "nu, nup, xi, error",
        [
            (60.0, 1.0, 0.09, DomainError),  # order above NU_MAX, met before the sample above 0.1
            (1e-300, 1.0, 0.09, DomainError),  # sinc prefactor, met before the sample above 0.1
            (1e300, 1e-4, 1e-2, DomainError),  # sinc prefactor overflows: refused, not OverflowError
            (1.0, 1.5, 0.09, RangeError),  # the last samples lie above xi = 0.1
            (1.0, 1.5, 0.2, RangeError),
            (1.0, 1.0 + 1e-9, 1e-3, NearDiagonalError),
        ],
    )
    def test_envelope_refusals_in_sample_order(self, nu, nup, xi, error):
        with pytest.raises(error):
            asymptotic_envelope(nu, nup, xi)

    def test_envelope_sums_one_array_series(self, monkeypatch):
        # both orders at every sample from one _k_dk_series call: one count of its
        # terms, and |Gamma(i nu)| and arg Gamma(1 + i nu) as arrays, none per order
        calls = {"series": 0, "run": 0, "abs_gamma": 0, "scalar_phase": 0}

        def counting(module, name, key, only=lambda *a, **kw: True):
            f = getattr(module, name)

            def counted(*a, **kw):
                calls[key] += bool(only(*a, **kw))
                return f(*a, **kw)

            monkeypatch.setattr(module, name, counted)

        counting(ortho_verify, "_k_dk_series", "series")
        counting(bessel_im, "_series_run", "run")
        counting(bessel_im, "abs_gamma_imag", "abs_gamma")
        scalar = lambda nu: not isinstance(nu, np.ndarray)
        for module in (bessel_im, ortho_verify):
            counting(module, "_arg_gamma_one_plus_imag", "scalar_phase", scalar)
        asymptotic_envelope(1.0, 1.5, 1e-3)
        assert calls == {"series": 1, "run": 1, "abs_gamma": 0, "scalar_phase": 0}

    def test_envelope_shrinks_fourfold(self):
        e1 = asymptotic_envelope(1.0, 1.5, 1e-3)
        e2 = asymptotic_envelope(1.0, 1.5, 5e-4)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_range_guard(self):
        with pytest.raises(RangeError):
            kernel_asymptotic(PairSpec(1.0, 1.5, 0.2))

    @pytest.mark.parametrize("xi", [0.0, -1e-3, math.nan, math.inf])
    def test_envelope_rejects_bad_cutoff(self, xi):
        with pytest.raises(DomainError):
            asymptotic_envelope(1.0, 1.5, xi)

    def test_envelope_rejects_tiny_orders(self):
        # nu nu' sinh(pi nu) sinh(pi nu') underflows in the sinc prefactor
        with pytest.raises(DomainError):
            asymptotic_envelope(1e-300, 1.0, 1e-3)

    def test_zero_times_inf_prefactor_refused_without_a_warning(self):
        # nu nu' sinh(pi nu) underflows to 0 while sinh(pi nu') overflows
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                asymptotic_envelope(1.3e-247, 700.0, 3.2e-81)


class TestPhaseFunction:
    def test_zero_at_origin_exact(self):
        assert phase_function(1.0, 0.0) == 0.0

    def test_half_step_value(self):
        expected = oracles.ARG_GAMMA_I - oracles.ARG_GAMMA_HALF_I
        assert phase_function(1.0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_finite_slope(self):
        for eta in (-0.3, -0.1, 0.1, 0.3):
            assert abs(phase_function(1.0, eta) / eta) < 5.0

    def test_continuity_across_sweep(self):
        # unwrapped values change smoothly even where principal args wrap
        vals = [phase_function(5.0, eta) for eta in [i / 100 for i in range(-450, 451, 5)]]
        steps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(steps) < 0.5

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            phase_function(1.0, 1.5)

    def test_closed_form_against_unwrapped_steps(self):
        # sum of principal-branch steps small enough never to cross a wrap
        for nu, eta in [(5.0, 4.5), (5.0, -4.9), (30.0, 29.0), (49.9, -45.0)]:
            n = 4000
            prev, acc = arg_gamma_imag(nu), 0.0
            for j in range(1, n + 1):
                cur = arg_gamma_imag(nu - eta * j / n)
                acc += math.remainder(cur - prev, 2.0 * math.pi)
                prev = cur
            assert phase_function(nu, eta) == pytest.approx(-acc, rel=1e-12), (nu, eta)

    @pytest.mark.parametrize("nu, eta", [(0.0, 0.0), (-1.0, 0.5), (1.0, 1.0), (1.0, -1.0),
                                         (150.0, 1.0), (99.0, -2.0), (math.nan, 0.0), (1.0, math.nan)])
    def test_domain_matches_bounds(self, nu, eta):
        with pytest.raises(DomainError):
            phase_function(nu, eta)

    def test_eta_zero_needs_no_phase(self):
        assert phase_function(150.0, 0.0) == 0.0


class TestKLWeight:
    def test_tiny_nu_value(self):
        # pi^2/(2 nu sinh pi nu) -> pi/(2 nu^2) for nu -> 0
        assert kl_weight(1e-150) == pytest.approx(math.pi / (2.0 * 1e-300), rel=1e-14)

    @pytest.mark.parametrize("nu", [1e-170, 1e-155, 300.0, math.inf, math.nan, 0.0, -1.0])
    def test_unrepresentable_or_invalid_rejected(self, nu):
        with pytest.raises(DomainError):
            kl_weight(nu)


class TestDeltaModel:
    def test_zero_of_sine(self):
        assert delta_model(math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_removable_singularity(self):
        assert delta_model(2.0, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_unit_mass_via_sine_integral(self):
        a = 100.0
        v, _ = integrate.quad(
            lambda e: delta_model(a, e), -1.0, 1.0, points=[0.0], limit=400, epsabs=1e-12
        )
        si, _ = sc.sici(a)
        assert v == pytest.approx(2.0 / math.pi * si, abs=1e-8)

    def test_phase_perturbed_removable_value(self):
        f = lambda eta: phase_function(1.0, eta)
        h = 1e-6
        fp0 = (f(h) - f(-h)) / (2 * h)
        assert delta_model(3.0, 0.0, f) == pytest.approx((3.0 + fp0) / math.pi, rel=1e-12)

    def test_normalization_against_bump(self):
        f = lambda eta: phase_function(1.0, eta)
        phi = TestFunctionSpec("gaussian-bump", 0.1, 0.25)
        errs = []
        for xi in (1e-2, 1e-4, 1e-6):
            a = -math.log(xi / 2.0)
            v, _ = integrate.quad(
                lambda e: delta_model(a, e, f) * phi(e),
                -0.9,
                0.9,
                points=[0.0],
                limit=400,
                epsabs=1e-11,
            )
            errs.append(abs(v - phi(0.0)) / phi(0.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.02


class TestDiagonalLimit:
    def test_equals_quadrature(self):
        d = diagonal_limit(1.0, 0.3)
        q = kernel_quadrature(PairSpec(1.0, 1.0, 0.3)).value
        assert d == pytest.approx(q, abs=1e-6)

    def test_near_diagonal_continuity(self):
        d = diagonal_limit(1.0, 0.3)
        nb = kernel_boundary(PairSpec(1.0, 1.0 + 1e-5, 0.3)).value
        assert nb == pytest.approx(d, abs=1e-4)

    def test_against_frozen_oracle_grid(self):
        # the closed form's d ln|Gamma(i nu)|/dnu and d psi/dnu parts are of the size of
        # the secular term kl_weight(nu) ln(2/xi) / pi and cancel to the value, so the
        # absolute error is a few eps kl_weight(nu): at most 2.5 of it here and on 300
        # seeded points.  Where the value is much smaller (small nu, or xi near 2) that
        # exceeds 1e-13 relative: at nu = 0.1, xi = 2 by 1.2e-11
        eps = np.finfo(float).eps
        for (nu, xi), ref in oracles.DIAGONAL.items():
            err = abs(diagonal_limit(nu, xi) - ref)
            assert err <= max(1e-13 * ref, 4.0 * eps * kl_weight(nu)), (nu, xi, err / ref)
            if xi <= 0.1:
                assert err <= max(1e-13, 2.0 * eps / nu**2) * ref, (nu, xi, err / ref)

    def test_live_oracle_spot_check(self):
        for nu, xi in [(1.0, 1e-3), (0.1, 2.0)]:
            assert oracles.DIAGONAL[nu, xi] == float(oracles.diagonal_ref(nu, xi))

    def test_is_the_limit_of_one_series_call(self):
        # L'Hopital on the boundary term: xi (K dK'/dnu - K' dK/dnu) / (2 nu), all from
        # one series call; nu = 50 is served too (nu + h once passed NU_MAX there)
        for nu, xi in [(1.0, 0.3), (0.4, 1e-6), (3.0, 2.0), (50.0, 1e-3)]:
            k, dk, k_nu, dk_nu = bessel_im._k_dk_series(nu, np.array([xi]), dnu=True)
            assert diagonal_limit(nu, xi) == float(xi * (k * dk_nu - dk * k_nu)[0] / (2.0 * nu))

    @pytest.mark.parametrize(
        "nu, xi",
        [(0.0, 0.3), (-1.0, 0.3), (1e-4, 0.3), (1e-5, 0.3), (math.nan, 0.3), (50.1, 0.3),
         (math.inf, 0.3), (1.0, 0.0), (1.0, -1e-3), (1.0, 2.0000001), (1.0, math.nan),
         (1.0, 5e-324)],
    )
    def test_refusals(self, nu, xi):
        # nu <= 1e-4 as when nu - h had to stay > 0 for the former default step h = 1e-4;
        # at xi = 5e-324, xi/2 underflows
        with pytest.raises(RangeError if xi == 5e-324 else DomainError):
            diagonal_limit(nu, xi)

    def test_step_is_retired(self):
        with pytest.raises(TypeError):
            diagonal_limit(1.0, 0.3, 1e-4)

    def test_logarithmic_growth(self):
        xi = 1e-8
        ratio = diagonal_limit(1.0, xi) / (kl_weight(1.0) * (-math.log(xi / 2.0) / math.pi))
        assert ratio == pytest.approx(1.0, abs=0.1)


class TestTestFunctionSpec:
    @pytest.mark.parametrize("kind", ["gaussian-bump", "smooth-compact-bump"])
    def test_array_and_scalar_agree(self, kind):
        phi = TestFunctionSpec(kind, 1.0, 0.5)
        v = np.linspace(0.0, 2.0, 41)
        assert type(phi(0.8)) is float
        np.testing.assert_allclose(phi(v), [phi(float(t)) for t in v], rtol=1e-15, atol=0.0)

    def test_center_value_is_one(self):
        assert TestFunctionSpec("gaussian-bump", 1.0, 0.2)(1.0) == 1.0
        assert TestFunctionSpec("smooth-compact-bump", 1.0, 0.5)(1.0) == 1.0

    def test_compact_support(self):
        phi = TestFunctionSpec("smooth-compact-bump", 1.0, 0.5)
        assert phi(0.4) == 0.0
        assert phi(1.6) == 0.0

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            TestFunctionSpec("triangle", 1.0, 0.2)

    def test_mass_fraction(self):
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.2)
        assert phi.mass_fraction_outside_positive_axis() < 1e-6


class TestWeakLimit:
    def test_convergence_run(self):
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.2)
        rep = weak_limit_test(1.0, [1e-2, 1e-3, 1e-4, 1e-6], phi)
        assert rep.target == pytest.approx(kl_weight(1.0), rel=1e-14)
        # monotone decrease, allowing one backstep below 10%
        backsteps = [
            later / earlier - 1.0
            for earlier, later in zip(rep.errors, rep.errors[1:])
            if later > earlier
        ]
        assert len(backsteps) <= 1 and all(b < 0.1 for b in backsteps)
        assert rep.errors[-1] / rep.target < 0.05

    def test_target_weight_value(self):
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.2)
        rep = weak_limit_test(1.0, [1e-2], phi)
        assert rep.target == pytest.approx(math.pi**2 / (2.0 * math.sinh(math.pi)), rel=1e-14)

    def test_reflected_term_small(self):
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.2)
        rep = weak_limit_test(1.0, [1e-2, 1e-4], phi)
        assert rep.reflected_term_bound < 1e-2 * rep.target

    def test_a_sequence_reported(self):
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.2)
        rep = weak_limit_test(1.0, [1e-2, 1e-4], phi)
        assert rep.a_sequence == tuple(-math.log(x / 2.0) for x in rep.xi_sequence)

    def test_non_decreasing_sequence_rejected(self):
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.2)
        with pytest.raises(DomainError):
            weak_limit_test(1.0, [1e-4, 1e-2], phi)

    def test_vanishing_target_rejected(self):
        phi = TestFunctionSpec("smooth-compact-bump", 1.0, 0.5)  # phi(2) = 0
        with pytest.raises(DomainError):
            weak_limit_test(2.0, [1e-2], phi)

    def test_support_mass_guard(self):
        phi = TestFunctionSpec("gaussian-bump", 0.1, 0.25)  # heavy mass below 0
        with pytest.raises(DomainError):
            weak_limit_test(1.0, [1e-2], phi)


def smeared_reference(nu, xi, phi):
    """_smeared_kernel as scipy quad over the scalar boundary term, same window and tolerances."""
    lo, hi = phi.support()
    lo = max(lo, 1.0e-2)
    if hi <= lo:
        raise DomainError("test function support does not intersect nu' > 0")
    window = ortho_verify._DIAG_WINDOW
    diag = diagonal_limit(nu, xi) if lo - window < nu < hi + window else None

    def integrand(nup):
        if abs(nup - nu) < window:
            return diag * phi(nup)
        return kernel_boundary(PairSpec(nu, nup, xi)).value * phi(nup)

    points = [nu] if lo < nu < hi else None
    value, _err = integrate.quad(
        integrand, lo, hi, points=points, limit=400, epsabs=1e-10, epsrel=1e-9
    )
    return value


def reflected_reference(nu, xi, phi):
    """_reflected_bound as scipy quad over the scalar sinc term: the same tolerances."""
    lo, hi = phi.support()
    lo = max(lo, 1.0e-2)
    lg = math.log(0.5 * xi)
    g1 = arg_gamma_imag(nu)

    def integrand(nup):
        den = 2.0 * math.sqrt(nu * nup * math.sinh(math.pi * nu) * math.sinh(math.pi * nup))
        s = math.sin(-(nu + nup) * lg + g1 + arg_gamma_imag(nup))
        return math.pi / den * s / (nu + nup) * phi(nup)

    value, _err = integrate.quad(integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-10)
    return abs(value)


def weak_limit_cases(n, seed):
    """(nu, cutoffs, phi) drawn like the weak_limit benchmark's inputs, with phi off centre too."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        nu = math.exp(rng.uniform(math.log(0.5), math.log(2.5)))
        xi0 = math.exp(rng.uniform(math.log(0.02), math.log(0.1)))
        width = min(rng.uniform(0.3, 0.9) / math.log(2.0 / xi0), nu / 5.0)
        center = nu * rng.uniform(0.8, 1.2)
        xis = (xi0, xi0 * 10.0 ** rng.uniform(-6.0, -4.0))
        yield nu, xis, TestFunctionSpec("gaussian-bump", center, width)


class TestWeakLimitRegression:
    def test_matches_scalar_quad_reference(self):
        # the last case has nu outside the support of phi, so no diagonal window
        off_support = (1.0, (1e-2, 1e-6), TestFunctionSpec("gaussian-bump", 1.5, 0.05))
        for nu, xis, phi in [*weak_limit_cases(12, seed=7), off_support]:
            for xi in xis:
                smeared = ortho_verify._smeared_kernel(nu, [xi], phi)[0]
                assert abs(smeared - smeared_reference(nu, xi, phi)) <= 1e-12, (nu, xi, phi)
            reflected = ortho_verify._reflected_bound(nu, min(xis), phi)
            assert abs(reflected - reflected_reference(nu, min(xis), phi)) <= 1e-12, (nu, phi)

    def test_all_cutoffs_in_one_quadrature_match_scalar_quad_reference(self):
        # one G7K15 partition for every cutoff, laid for the smallest one
        off_support = (1.0, (1e-2, 1e-6), TestFunctionSpec("gaussian-bump", 1.5, 0.05))
        criterion_10 = (1.0, (1e-2, 1e-3, 1e-4, 1e-6), TestFunctionSpec("gaussian-bump", 1.0, 0.2))
        for nu, xis, phi in [*weak_limit_cases(12, seed=7), off_support, criterion_10]:
            smeared = ortho_verify._smeared_kernel(nu, xis, phi)
            assert len(smeared) == len(xis)
            for xi, value in zip(xis, smeared):
                assert abs(value - smeared_reference(nu, xi, phi)) <= 1e-12, (nu, xi, phi)

    def test_integrand_rows_are_the_one_cutoff_integrands(self, monkeypatch):
        # at nodes inside the diagonal window too, where the row holds that cutoff's limit
        integrands = []
        gauss_kronrod = ortho_verify._gauss_kronrod
        monkeypatch.setattr(
            ortho_verify, "_gauss_kronrod", lambda f, *a: integrands.append(f) or gauss_kronrod(f, *a)
        )
        phi, xis = TestFunctionSpec("gaussian-bump", 1.0, 0.2), [1e-2, 1e-3, 1e-4, 1e-6]
        ortho_verify._smeared_kernel(1.0, xis, phi)
        for xi in xis:
            ortho_verify._smeared_kernel(1.0, [xi], phi)
        nodes = np.array([0.9, 1.0 - 5e-7, 1.0 + 1e-7, 1.0 + 2e-6, 1.2])
        rows = integrands[0](nodes)
        assert rows.shape == (len(xis), nodes.size)
        for row, one_cutoff in zip(rows, integrands[1:]):
            assert np.array_equal(row, one_cutoff(nodes)[0])
        assert rows[:, 1].tolist() == [diagonal_limit(1.0, xi) * phi(nodes[1]) for xi in xis]

    @pytest.mark.parametrize(
        "nu, xi, phi, frozen",
        [
            (
                1.3, 0.03, ("gaussian-bump", 1.25, 0.1),
                "WeakLimitReport(nu=1.3, xi_sequence=(0.03,), a_sequence=(4.199705077879927,), "
                "smeared_values=(0.05181390195300333,), target=0.11285049858982332, "
                "errors=(0.06103659663681999,), reflected_term_bound=0.002613289893686267)",
            ),
            (  # nu outside the support of phi
                0.8, 0.0021296280236068246, ("gaussian-bump", 0.7, 0.011),
                "WeakLimitReport(nu=0.8, xi_sequence=(0.0021296280236068246,), "
                "a_sequence=(6.844955131875839,), smeared_values=(0.07076187083009809,), "
                "target=1.138976287020037e-18, errors=(0.07076187083009809,), "
                "reflected_term_bound=0.0017746818865366808)",
            ),
        ],
    )
    def test_one_cutoff_keeps_its_bits(self, nu, xi, phi, frozen):
        # frozen from the quadrature that ran once per cutoff: with one cutoff the
        # shared quadrature does the same arithmetic
        assert repr(weak_limit_test(nu, [xi], TestFunctionSpec(*phi))) == frozen

    def test_returns_python_floats(self):
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.1)
        assert type(ortho_verify._smeared_kernel(1.0, [1e-3], phi)[0]) is float
        assert type(ortho_verify._reflected_bound(1.0, 1e-3, phi)) is float

    @pytest.mark.parametrize(
        "nu, phi",
        [
            (1.0, TestFunctionSpec("gaussian-bump", 1e-3, 1e-4)),  # support below nu' = 1e-2
            (49.5, TestFunctionSpec("gaussian-bump", 49.9, 0.2)),  # nodes above NU_MAX
        ],
    )
    def test_smeared_same_refusals_as_reference(self, nu, phi):
        with pytest.raises(DomainError):
            smeared_reference(nu, 1e-2, phi)
        with pytest.raises(DomainError):
            ortho_verify._smeared_kernel(nu, [1e-2], phi)

    def test_reflected_same_refusal_as_reference(self):
        phi = TestFunctionSpec("gaussian-bump", 150.0, 1.0)  # arg Gamma(i nu') above nu' = 100
        with pytest.raises(DomainError):
            reflected_reference(1.0, 1e-2, phi)
        with pytest.raises(DomainError):
            ortho_verify._reflected_bound(1.0, 1e-2, phi)

    def test_wide_support_refused_before_the_sweep(self, monkeypatch):
        # every node above NU_MAX is refused; its panels must not be laid first
        monkeypatch.setattr(ortho_verify, "_panel_edges", None)
        phi = TestFunctionSpec("gaussian-bump", 1e6, 1e5)
        with pytest.raises(DomainError):
            ortho_verify._smeared_kernel(1.0, [1e-300], phi)

    def test_nodes_in_the_window_take_the_diagonal_limit_off_the_support(self, monkeypatch):
        # nu just above the support: the nodes within _DIAG_WINDOW of it take the limit,
        # also where the Wronskian would divide by |nu^2 - nu'^2| ~ 1e-8
        integrands = []
        monkeypatch.setattr(
            ortho_verify, "_gauss_kronrod", lambda f, *a: integrands.append(f) or ([0.0], [0.0])
        )
        phi, xi = TestFunctionSpec("gaussian-bump", 1.0, 0.05), 1e-2
        nu = phi.support()[1] + 5e-7
        ortho_verify._smeared_kernel(nu, [xi], phi)
        nodes = np.array([nu - 2e-7, nu - 5e-9])
        assert integrands[0](nodes)[0].tolist() == (diagonal_limit(nu, xi) * phi(nodes)).tolist()

    def test_no_derivative_call_far_off_the_support(self):
        # the nu-derivatives of K' overflow at xi = 1e-306; nu lies far outside the support
        phi = TestFunctionSpec("gaussian-bump", 3.0, 0.2)
        rep = weak_limit_test(1.0, [1e-306], phi)
        assert all(math.isfinite(v) for v in rep.smeared_values)

    def test_subnormal_cutoff_refused(self):
        # K' overflows at xi = 1e-310; the scalar route returned nan here
        phi = TestFunctionSpec("gaussian-bump", 1.0, 0.1)
        with pytest.raises(RangeError):
            weak_limit_test(1.0, [1e-310], phi)
        with pytest.raises(RangeError):
            kernel_boundary(PairSpec(1.0, 2.0, 1e-310))


class TestEnvelopeAtTinyCutoff:
    """The octave fits where a scaling by s^2 overflowed: inf from xi ~ 1e-150, nan below."""

    @pytest.mark.parametrize("xi", [1e-150, 5e-151, 1e-160, 1e-200, 1e-300])
    def test_finite_without_warnings(self, xi):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow and divide warnings too
            envelope = asymptotic_envelope(1.0, 1.5, xi)
        # the envelope, about 7e-3 xi^2, is subnormal or 0 below xi ~ 2e-153: finite and small
        assert 0.0 <= envelope <= 1e-11

    @pytest.mark.parametrize("nu", [0.3, 1.0])
    @pytest.mark.parametrize("x", [1e-100, 1e-160, 1e-300])
    def test_smallx_envelope_finite_without_warnings(self, nu, x):
        # the small-x form's envelope overflowed sooner: inf from x ~ 1e-100, nan from 1e-200
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            envelope = smallx_error_envelope(nu, x)
        assert 0.0 <= envelope <= 1e-11

    @pytest.mark.parametrize("nu", [0.3, 1.0])
    def test_smallx_envelope_over_x_squared_is_flat(self, nu):
        # the difference of two O(1) values read 87002 x^2 at (1, 1e-10), against 0.0922 x^2
        ref = smallx_error_envelope(nu, 1e-6) / 1e-12
        for x in (1e-10, 1e-50, 1e-100, 1e-150):
            assert abs(smallx_error_envelope(nu, x) / x**2 / ref - 1.0) <= 1e-9, x

    def test_halving_shrinks_fourfold_while_resolved(self):
        # at xi = 1e-5 the envelope is about 7e-13
        ratio = asymptotic_envelope(1.0, 1.5, 1e-5) / asymptotic_envelope(1.0, 1.5, 5e-6)
        assert 0.75 * 4.0 <= ratio <= 1.25 * 4.0  # asym-check's default band
