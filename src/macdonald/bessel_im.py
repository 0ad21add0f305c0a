"""Modified Bessel functions of purely imaginary order.

Evaluates I_{+-i nu}(x) by its power series, K_{i nu}(x) either through
the I-combination (small x) or through the Laplace-type integral
representation (large x), together with termwise x-derivatives and the
two asymptotic approximations used for cross-checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .errors import DomainError, RangeError
from .gamma_core import abs_gamma_imag, arg_gamma_imag, reciprocal_gamma

__all__ = [
    "FunctionValue",
    "X_SWITCH",
    "NU_MAX",
    "besseli_imag",
    "besselk_imag",
    "besselk_dx",
    "besselk_smallx_approx",
    "besselk_largex_approx",
    "ode_residual",
]

Method = Literal["series-combination", "integral-representation", "large-x-asymptotic"]

# Series combination of I_{-i nu} - I_{i nu} loses ~e^x of headroom to
# cancellation; x <= 2 keeps >= 12 significant digits in binary64.
X_SWITCH = 2.0
NU_MAX = 50.0
X_SERIES_MAX = 30.0

_EPS = 2.2204460492503131e-16
_SERIES_TINY = 1.0e-18
_SERIES_CAP = 500


@dataclass(frozen=True)
class FunctionValue:
    """An evaluated function value with an absolute-error estimate."""

    value: Union[float, complex]
    abs_err_estimate: float
    method: Method


def _check_order(nu: float, allow_zero: bool = True) -> float:
    if not math.isfinite(nu):
        raise DomainError("order must be finite")
    if abs(nu) > NU_MAX:
        raise DomainError(f"|nu| = {abs(nu):g} exceeds supported bound {NU_MAX:g}")
    if nu == 0.0 and not allow_zero:
        raise DomainError("nu = 0 not supported by this operation")
    return nu


def _check_abscissa(x: float) -> float:
    if not (math.isfinite(x) and x > 0.0):
        raise RangeError(f"abscissa must be finite and > 0, got {x!r}")
    return x


def _i_series(nu_signed: float, x: float, deriv: int = 0) -> tuple[complex, float]:
    """Termwise series for I_{i*nu_signed}(x) or its x-derivatives.

    Returns (value, absolute error estimate).  deriv in {0, 1, 2}.
    The k-th term of I is c_k * (x/2)^(2k + i nu); differentiation
    multiplies it by falling powers of m = 2k + i nu over x.
    """
    mu = complex(0.0, nu_signed)  # the order i*nu
    half = 0.5 * x
    log_half = math.log(half)
    # (x/2)^{i nu} = exp(i nu ln(x/2)); no branch ambiguity for x > 0
    prefactor = cmath.exp(mu * log_half)
    h2 = half * half

    c = reciprocal_gamma(1.0 + mu)  # c_0 = 1/Gamma(1 + i nu)
    powxk = 1.0  # (x/2)^{2k}
    total = 0.0j
    max_mag = 0.0
    small_run = 0
    last_term_mag = 0.0
    for k in range(_SERIES_CAP):
        m = 2.0 * k + mu
        if deriv == 0:
            factor = 1.0
        elif deriv == 1:
            factor = m / x
        else:
            factor = m * (m - 1.0) / (x * x)
        term = c * powxk * factor
        total += term
        last_term_mag = abs(term)
        max_mag = max(max_mag, last_term_mag)
        if last_term_mag < _SERIES_TINY * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        kk = k + 1
        c = c / (kk * (kk + mu))
        powxk *= h2
    value = prefactor * total
    err = abs(prefactor) * (last_term_mag + _EPS * max_mag)
    return value, err


def besseli_imag(nu: float, x: float, sign: int = +1) -> FunctionValue:
    """I_{sign * i * nu}(x) by the power series; complex-valued."""
    nu = _check_order(nu)
    x = _check_abscissa(x)
    if x > X_SERIES_MAX:
        raise RangeError(
            f"series path supports x <= {X_SERIES_MAX:g}; use besselk_imag for decay"
        )
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    value, err = _i_series(sign * nu, x)
    return FunctionValue(value=value, abs_err_estimate=err, method="series-combination")


def _k_series(nu: float, x: float, deriv: int = 0) -> tuple[float, float, float]:
    """K (or derivative) via the combination (pi/2i)(I_{-i nu}-I_{i nu})/sinh(pi nu).

    Returns (real value, error estimate, relative imaginary residue).
    """
    ip, errp = _i_series(+nu, x, deriv)
    im, errm = _i_series(-nu, x, deriv)
    s = math.sinh(math.pi * nu)
    comb = (math.pi / 2j) * (im - ip) / s
    mag = abs(comb)
    residue = abs(comb.imag) / mag if mag > 0.0 else 0.0
    # cancellation: absolute error of the difference is set by |I| itself
    err = (math.pi / (2.0 * abs(s))) * (errp + errm + _EPS * (abs(ip) + abs(im)))
    return comb.real, err, residue


def _k_integral(nu: float, x: float, deriv: int = 0) -> tuple[float, float]:
    """K (or derivative) from int_0^inf e^{-x cosh t} cos(nu t) dt.

    Trapezoidal rule on [0, T] with e^{-x cosh T} <= 1e-20; the
    double-exponential decay of the integrand makes the rule converge
    exponentially in the step size.  Summation uses math.fsum so the
    roundoff stays at one ulp of the sum even under heavy cancellation
    (nu > x regime).
    """
    nu = abs(nu)
    T = math.acosh(max(46.0 / x, 1.5))
    sign = -1.0 if deriv == 1 else 1.0

    def trap(n: int) -> float:
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
    scale = math.exp(-x)
    for _ in range(12):
        n *= 2
        cur = trap(n)
        change = abs(cur - prev)
        # <=, not <: once e^{-x} underflows the sums and the bound are all exactly 0
        if change <= 1e-13 * abs(cur) + 1e-18 * scale and last_change < math.inf:
            prev = cur
            last_change = change
            break
        last_change = change
        prev = cur
    tail = math.exp(-x * math.cosh(T)) / (x * math.sinh(T))
    return sign * prev, last_change + tail + _EPS * abs(prev)


def _k_fused(nu: float, x: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """K_{i nu}(x) and K'_{i nu}(x) from one pass over the I_{i nu} series.

    Returns ((K, error), (K', error)), bitwise equal to _k_series at
    deriv 0 and 1.  For real x, I_{-i nu}(x) = conj I_{i nu}(x), and the
    two series come out as exact conjugates in binary64, so the
    combination reduces to K = -pi Im I_{i nu} / sinh(pi nu) and its error
    to (pi / sinh(pi nu)) (err + eps |I|).  The K' series shares every
    term, times m/x; each of the two sums keeps its own stopping rule.
    """
    mu = complex(0.0, nu)
    half = 0.5 * x
    prefactor = cmath.exp(mu * math.log(half))
    h2 = half * half
    c = reciprocal_gamma(1.0 + mu)
    powxk = 1.0
    total0 = total1 = 0.0j
    last0 = last1 = max0 = max1 = 0.0
    run0 = run1 = 0  # a sum is finished once its run of small terms reaches 3
    for k in range(_SERIES_CAP):
        term = c * powxk
        if run0 < 3:
            total0 += term
            last0 = abs(term)
            if last0 > max0:
                max0 = last0
            ref = abs(total0)  # the stopping rule of _i_series, max() inlined
            if last0 < _SERIES_TINY * (ref if ref >= 1e-300 else 1e-300):
                run0 += 1
            else:
                run0 = 0
        if run1 < 3:
            term1 = term * ((2.0 * k + mu) / x)
            total1 += term1
            last1 = abs(term1)
            if last1 > max1:
                max1 = last1
            ref = abs(total1)
            if last1 < _SERIES_TINY * (ref if ref >= 1e-300 else 1e-300):
                run1 += 1
            else:
                run1 = 0
        if run1 >= 3 and run0 >= 3:
            break
        kk = k + 1
        c = c / (kk * (kk + mu))
        powxk *= h2
    s = math.sinh(math.pi * nu)
    scale = math.pi / s
    mag = abs(prefactor)
    i0 = prefactor * total0
    i1 = prefactor * total1
    # 0 - pi Im I, the real part of (pi/2i)(conj I - I): Im I = 0 gives +0.0
    k0 = (0.0 - math.pi * i0.imag) / s
    k1 = (0.0 - math.pi * i1.imag) / s
    err0 = scale * (mag * (last0 + _EPS * max0) + _EPS * abs(i0))
    err1 = scale * (mag * (last1 + _EPS * max1) + _EPS * abs(i1))
    return (k0, err0), (k1, err1)


def _k_eval(
    nu: float, x: float, method: str = "auto", orders: tuple[int, ...] = (0, 1)
) -> tuple[list[tuple[float, float]], Method]:
    """Validate (nu, x), choose the path once, and evaluate K and derivatives.

    Returns [(value, error) for each derivative order in `orders`] and
    the method tag.  The series path is the I-combination for
    x <= X_SWITCH (K and K' from one fused pass); the integral
    representation serves x > X_SWITCH and always nu = 0, where the
    combination is a 0/0 form.
    """
    nu = abs(_check_order(nu))  # K_{i nu} = K_{-i nu} structurally
    x = _check_abscissa(x)
    if method == "series" and nu == 0.0:
        raise DomainError("nu = 0 is a 0/0 form on the series-combination path")
    if method == "series" and x > X_SERIES_MAX:
        raise RangeError(f"series path supports x <= {X_SERIES_MAX:g}")
    if method == "series" or (method == "auto" and x <= X_SWITCH and nu != 0.0):
        fused = _k_fused(nu, x)
        values = [fused[d] if d < 2 else _k_series(nu, x, d)[:2] for d in orders]
        return values, "series-combination"
    return [_k_integral(nu, x, d) for d in orders], "integral-representation"


def _k_and_dk(nu: float, x: float) -> tuple[float, float]:
    """(K_{i nu}(x), K'_{i nu}(x)) on the automatic path, values only."""
    ((k, _), (dk, _)), _method = _k_eval(nu, x)
    return k, dk


def besselk_imag(
    nu: float,
    x: float,
    method: Literal["auto", "series", "integral"] = "auto",
) -> FunctionValue:
    """Real-valued K_{i nu}(x).

    Uses the I-combination for x <= X_SWITCH and the integral
    representation beyond (and always for nu = 0, where the combination
    is a 0/0 form).
    """
    ((value, err),), tag = _k_eval(nu, x, method, orders=(0,))
    return FunctionValue(value=value, abs_err_estimate=err, method=tag)


def besselk_dx(
    nu: float,
    x: float,
    method: Literal["auto", "series", "integral"] = "auto",
) -> FunctionValue:
    """dK_{i nu}(x)/dx by termwise differentiation of the active representation."""
    ((value, err),), tag = _k_eval(nu, x, method, orders=(1,))
    return FunctionValue(value=value, abs_err_estimate=err, method=tag)


def combination_imag_residue(nu: float, x: float) -> float:
    """Relative imaginary residue of the I-combination before it is discarded."""
    nu = abs(_check_order(nu, allow_zero=False))
    x = _check_abscissa(x)
    if x > X_SERIES_MAX:
        raise RangeError(f"series path supports x <= {X_SERIES_MAX:g}")
    _value, _err, residue = _k_series(nu, x)
    return residue


def besselk_smallx_approx(nu: float, x: float) -> float:
    """Leading small-x form sqrt(pi/(nu sinh pi nu)) cos(-nu ln(x/2) + arg Gamma(i nu))."""
    nu = _check_order(nu, allow_zero=False)
    x = _check_abscissa(x)
    if x > 2.0:
        raise RangeError("small-x approximation restricted to 0 < x <= 2")
    a = abs(nu)
    amp = abs_gamma_imag(a)
    return amp * math.cos(-a * math.log(0.5 * x) + arg_gamma_imag(a))


def besselk_largex_approx(nu: float, x: float) -> float:
    """Leading large-x form sqrt(pi/(2x)) e^{-x}; independent of nu."""
    _check_order(nu)
    x = _check_abscissa(x)
    if x < 5.0:
        raise RangeError("large-x approximation not claimed below x = 5")
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)


def smallx_error_envelope(nu: float, x: float, n_samples: int = 16) -> float:
    """Phase-averaged envelope of |K_{i nu} - besselk_smallx_approx| near x.

    The leading error of the small-x form is an x^2-scaled oscillation in
    ln x at frequency nu.  Sampling one octave around x and projecting
    onto the quadrature pair (cos(nu ln x), sin(nu ln x)) extracts an
    amplitude independent of the local phase, so halving x shrinks it by
    a factor close to 4.
    """
    nu = abs(_check_order(nu, allow_zero=False))
    x = _check_abscissa(x)
    if x > 1.0:
        raise RangeError("small-x envelope meaningful only for x <= 1")
    u = np.linspace(math.log(x) - 0.5 * math.log(2.0), math.log(x) + 0.5 * math.log(2.0), n_samples)
    xs = np.exp(u)
    err = np.array(
        [besselk_imag(nu, float(s)).value - besselk_smallx_approx(nu, float(s)) for s in xs]
    )
    y = err / xs**2
    basis = np.vstack([np.cos(nu * u), np.sin(nu * u)]).T
    coeff, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return x * x * math.sqrt(float(np.dot(coeff, coeff)))


def ode_residual(nu: float, x: float, family: Literal["K", "I"] = "K") -> float:
    """Normalized residual of the self-adjoint modified Bessel equation.

    For family "K": |d/dx(x K') + (nu^2/x - x) K| / ((nu^2/x + x) |K|)
    with all derivatives termwise.  For family "I" the same identity is
    checked for I_{i nu} (complex), normalized the same way.
    """
    nu_s = abs(_check_order(nu))
    x = _check_abscissa(x)
    weight = nu_s * nu_s / x - x
    norm = abs(nu_s * nu_s / x) + x
    if family == "I":
        f0, _ = _i_series(nu_s, x, 0)
        f1, _ = _i_series(nu_s, x, 1)
        f2, _ = _i_series(nu_s, x, 2)
        resid = x * f2 + f1 + weight * f0
        return abs(resid) / (norm * abs(f0))
    (k0, _), (k1, _), (k2, _) = _k_eval(nu_s, x, orders=(0, 1, 2))[0]
    resid = x * k2 + k1 + weight * k0
    return abs(resid) / (norm * abs(k0))
