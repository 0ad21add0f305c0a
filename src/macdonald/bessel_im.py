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
from typing import Literal, Sequence, Union

import numpy as np

from .errors import DomainError, RangeError
from .gamma_core import (
    _reciprocal_gamma_one_plus_imag,
    abs_gamma_imag,
    arg_gamma_imag,
)

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

# The series combination of I_{-i nu} - I_{i nu} loses to cancellation
# about the ratio of its largest term to |K|: ~e^x at small order, and
# ~e^{x^2 / (4 nu)} while x <= nu at large order.  The automatic path takes
# the series up to _x_switch(nu): x <= 2 for nu <= 2, else x <= nu up to
# X_SERIES_MAX; there it stays within 1e-13 of the amplitude of K against
# 40-digit mpmath, where the integral path cannot resolve K ~ e^{-pi nu / 2}.
X_SWITCH = 2.0
NU_MAX = 50.0
X_SERIES_MAX = 30.0

_EPS = 2.2204460492503131e-16
_SERIES_TINY = 1.0e-18
_SERIES_CAP = 500
_CHUNK = 1 << 20  # elements per temporary in _k_values


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


def _x_switch(nu: float) -> float:
    """Largest x at which the automatic path takes the series at order nu."""
    return max(X_SWITCH, min(nu, X_SERIES_MAX))


def _log_half(x: float) -> float:
    """ln(x/2) for the series path; at x = 5e-324, x/2 rounds to 0 and the path cannot go on."""
    half = 0.5 * x
    if half == 0.0:
        raise RangeError(f"x/2 underflows to 0 at x = {x!r}; the series path needs ln(x/2)")
    return math.log(half)


def _integral_span(x: float) -> float:
    """T of the integral path's rule e^{-x cosh T} <= ~1e-20; below x ~ 2.6e-307, 46/x overflows."""
    ratio = 46.0 / x
    if ratio == math.inf:
        raise RangeError(f"46/x overflows at x = {x!r}; the integral path cannot bound its tail")
    return math.acosh(max(ratio, 1.5))


def _i_series(nu_signed: float, x: float, deriv: int = 0) -> tuple[complex, float]:
    """Termwise series for I_{i*nu_signed}(x) or its x-derivatives.

    Returns (value, absolute error estimate).  deriv in {0, 1, 2}.
    The k-th term of I is c_k * (x/2)^(2k + i nu); differentiation
    multiplies it by falling powers of m = 2k + i nu over x.
    """
    mu = complex(0.0, nu_signed)  # the order i*nu
    half = 0.5 * x
    log_half = _log_half(x)
    # (x/2)^{i nu} = exp(i nu ln(x/2)); no branch ambiguity for x > 0
    prefactor = cmath.exp(mu * log_half)
    h2 = half * half

    c = _reciprocal_gamma_one_plus_imag(nu_signed)  # c_0 = 1/Gamma(1 + i nu)
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
    # the rounded phase nu ln(x/2) is off by ~2 eps nu |ln(x/2)|, an error of that times |I|
    phase_err = 2.0 * _EPS * abs(nu_signed) * abs(log_half)
    err = abs(prefactor) * (last_term_mag + _EPS * max_mag) + phase_err * abs(value)
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
    T = _integral_span(x)
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
    to (pi / sinh(pi nu)) (err + eps |I|), err with _i_series' phase term.
    The K' series shares every term, times m/x; each of the two sums keeps
    its own stopping rule.
    """
    mu = complex(0.0, nu)
    half = 0.5 * x
    log_half = _log_half(x)
    prefactor = cmath.exp(mu * log_half)
    h2 = half * half
    c = _reciprocal_gamma_one_plus_imag(nu)
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
    phase_err = 2.0 * _EPS * nu * abs(log_half)  # as in _i_series, in the same order
    err0 = scale * (mag * (last0 + _EPS * max0) + phase_err * abs(i0) + _EPS * abs(i0))
    err1 = scale * (mag * (last1 + _EPS * max1) + phase_err * abs(i1) + _EPS * abs(i1))
    return (k0, err0), (k1, err1)


def _k_eval(
    nu: float, x: float, method: str = "auto", orders: tuple[int, ...] = (0, 1)
) -> tuple[list[tuple[float, float]], Method]:
    """Validate (nu, x), choose the path once, and evaluate K and derivatives.

    Returns [(value, error) for each derivative order in `orders`] and
    the method tag.  The series path is the I-combination for
    x <= _x_switch(nu) (K and K' from one fused pass); the integral
    representation serves larger x and always nu = 0, where the
    combination is a 0/0 form.  A value that overflows (K' below
    x ~ 1e-308) raises RangeError.
    """
    nu = abs(_check_order(nu))  # K_{i nu} = K_{-i nu} structurally
    x = _check_abscissa(x)
    if method == "series" and nu == 0.0:
        raise DomainError("nu = 0 is a 0/0 form on the series-combination path")
    if method == "series" and x > X_SERIES_MAX:
        raise RangeError(f"series path supports x <= {X_SERIES_MAX:g}")
    if method == "series" or (method == "auto" and nu != 0.0 and x <= _x_switch(nu)):
        fused = _k_fused(nu, x)
        values = [fused[d] if d < 2 else _k_series(nu, x, d)[:2] for d in orders]
        tag: Method = "series-combination"
    else:
        values, tag = [_k_integral(nu, x, d) for d in orders], "integral-representation"
    if not all(math.isfinite(v) for v, _err in values):
        raise RangeError(f"K_(i nu)(x) or a derivative is not finite at nu = {nu:g}, x = {x!r}")
    return values, tag


def _series_coefficients(nu: float, h2_max: float) -> np.ndarray:
    """c_k of I_{i nu}(x) = (x/2)^{i nu} sum_k c_k ((x/2)^2)^k, as many as _k_fused sums at h2_max.

    The K sum of _k_fused stops after three terms below 1e-18 of the
    partial sum; at a smaller (x/2)^2 every term is smaller, so the same
    coefficients are enough there.
    """
    mu = complex(0.0, nu)
    c = _reciprocal_gamma_one_plus_imag(nu)
    coeffs = []
    powxk = 1.0
    total = 0.0j
    run = 0
    for k in range(_SERIES_CAP):
        coeffs.append(c)
        term = c * powxk
        total += term
        if abs(term) < _SERIES_TINY * max(abs(total), 1e-300):
            run += 1
            if run >= 3:
                break
        else:
            run = 0
        kk = k + 1
        c = c / (kk * (kk + mu))
        powxk *= h2_max
    return np.array(coeffs)


def _k_series_values(nu: float, x: np.ndarray) -> np.ndarray:
    """K_{i nu} at every x <= _x_switch(nu): -pi Im I_{i nu} / sinh(pi nu), Horner in (x/2)^2."""
    half = 0.5 * x
    if not half.min() > 0.0:
        _log_half(float(x.min()))  # x = 5e-324 refuses as on the scalar path
    h2 = half * half
    coeffs = _series_coefficients(nu, float(h2.max()))
    poly = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly = poly * h2 + c
    phase = nu * np.log(half)
    im = np.sin(phase) * poly.real + np.cos(phase) * poly.imag
    return -math.pi * im / math.sinh(math.pi * nu)


def _trapezoid_sums(x: np.ndarray, t: np.ndarray, cos_nt: np.ndarray) -> np.ndarray:
    """sum_t e^{-x cosh t} cos_nt[t] for every x, chunked in t to at most _CHUNK elements."""
    out = np.zeros((x.size, cos_nt.shape[1]))
    step = max(1, _CHUNK // x.size)
    for i in range(0, t.size, step):
        e = np.multiply.outer(x, -np.cosh(t[i : i + step]))
        np.exp(e, out=e)
        out += e @ cos_nt[i : i + step]
    return out


def _k_integral_values(nus: Sequence[float], x: np.ndarray) -> np.ndarray:
    """K_{i nu}(x) for every nu in nus, by _k_integral's trapezoid rule on one grid.

    The grid spans [0, T(min x)], enough for every x, and each doubling
    evaluates only its new odd nodes.  One e^{-x cosh t} matrix serves
    every order, and also sums |f| for the rounding floor of the dot
    product, about 8 eps sqrt(n) h sum|f|: without math.fsum the change
    between doublings settles there, and _k_integral's rule alone would
    not hold at nu >~ 5.  A row (one x) stops doubling once every order
    meets the rule and the floor.
    """
    m = len(nus)
    nu = np.array(nus)
    T = _integral_span(float(x.min()))

    def cos_columns(t: np.ndarray, weight: np.ndarray) -> np.ndarray:
        c = np.cos(np.multiply.outer(t, nu)) * weight[:, None]
        return np.hstack([c, np.abs(c)])

    n = 64
    t = np.linspace(0.0, T, n + 1)
    weight = np.ones(n + 1)
    weight[[0, -1]] = 0.5
    sums = _trapezoid_sums(x, t, cos_columns(t, weight))  # [sum f | sum |f|], endpoints halved
    value = (T / n) * sums[:, :m]
    scale = np.exp(-x)[:, None]
    rows = np.arange(x.size)
    for doubling in range(12):
        n *= 2
        h = T / n
        t = h * np.arange(1, n, 2)
        sums[rows] += _trapezoid_sums(x[rows], t, cos_columns(t, np.ones(t.size)))
        cur = h * sums[rows, :m]
        change = np.abs(cur - value[rows])
        floor = 8.0 * _EPS * math.sqrt(n) * h * sums[rows, m:]
        bound = 1e-13 * np.abs(cur) + 1e-18 * scale[rows] + floor
        value[rows] = cur
        if doubling:  # as in _k_integral, the first change never stops the rule
            rows = rows[~np.all(change <= bound, axis=1)]
            if not rows.size:
                break
    return value


def _k_values(nus: Sequence[float], x: np.ndarray) -> np.ndarray:
    """K_{i nu}(x) for every nu in nus at every x, values only: shape (len(x), len(nus)).

    The array form of _k_eval's automatic path, with the same checks and
    the same switch: series for x <= _x_switch(nu) and nu != 0, the
    integral representation elsewhere.  One trapezoid grid serves every
    x beyond the lowest switch, for each order with an x beyond its own;
    the series then overwrites the values below each order's switch.  The
    arithmetic differs from the scalar path (Horner instead of a running
    sum, a dot product instead of math.fsum), so values agree with it
    within its error estimate, not bitwise.
    """
    orders = [abs(_check_order(float(nu))) for nu in nus]
    x = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        _check_abscissa(float(x[bad][0]))
    out = np.empty((x.size, len(orders)))
    switch = [_x_switch(nu) if nu != 0.0 else 0.0 for nu in orders]  # x <= 0 never holds
    integral = x > min(switch)
    if integral.any():
        top = x[integral].max()
        cols = [j for j, s in enumerate(switch) if s < top]  # the orders with an integral row
        out[np.ix_(integral, cols)] = _k_integral_values([orders[j] for j in cols], x[integral])
    for j, nu in enumerate(orders):
        series = x <= switch[j]
        if series.any():
            out[series, j] = _k_series_values(nu, x[series])
    return out


def _series_length(nu: float, h2: float) -> int:
    """Terms _k_fused sums at order nu and (x/2)^2 = h2: where the later of its K and K' sums stops.

    Both stopping rules are relative to their partial sums, so the common
    factors c_0 and, for K', 1/x drop out of them.
    """
    mu = complex(0.0, nu)
    term = 1.0 + 0.0j
    total0 = total1 = 0.0j
    run0 = run1 = 0
    for k in range(_SERIES_CAP):
        if run0 < 3:
            total0 += term
            run0 = run0 + 1 if abs(term) < _SERIES_TINY * max(abs(total0), 1e-300) else 0
        if run1 < 3:
            term1 = term * (2.0 * k + mu)
            total1 += term1
            run1 = run1 + 1 if abs(term1) < _SERIES_TINY * max(abs(total1), 1e-300) else 0
        if run0 >= 3 and run1 >= 3:
            return k + 1
        term *= h2 / ((k + 1) * (k + 1 + mu))
    return _SERIES_CAP


def _k_dk_series(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_{i nu}(x) and K'_{i nu}(x) elementwise over broadcast arrays nu and x, on the series path.

    Orders 0 < nu <= NU_MAX (else DomainError), abscissae 0 < x <= X_SWITCH
    (else RangeError).  The array form of _k_fused's values: the terms
    c_k (x/2)^{2k} / c_0 of every point are one cumulative product of
    (x/2)^2 / (k (k + i nu)), with as many terms as _k_fused sums where
    it needs the most (smallest nu, largest x), and c_0 = 1/Gamma(1 + i nu);
    K = -pi Im[(x/2)^{i nu} sum] / sinh(pi nu), and K' the same with the
    terms weighted by (2k + i nu)/x.  The rounding differs from
    _k_fused's running sums, so values agree with it to about its error
    estimate, not bitwise.  A K' that overflows (x below ~1e-308) raises
    RangeError.
    """
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (nu.min() > 0.0 and nu.max() <= NU_MAX):  # nan fails too
        bad = float(nu[~((nu > 0.0) & (nu <= NU_MAX))].flat[0])
        _check_order(bad, allow_zero=False)  # nan, inf, above NU_MAX, 0
        raise DomainError(f"order {bad:g} must be > 0 on the series path")
    x_min, x_max = x.min(), x.max()
    if not (x_min > 0.0 and x_max <= X_SWITCH):
        bad = float(x[~((x > 0.0) & (x <= X_SWITCH))].flat[0])
        _check_abscissa(bad)  # nan, inf, <= 0
        raise RangeError(f"series path supports x <= {X_SWITCH:g} here, got {bad!r}")
    _log_half(float(x_min))  # refuses x = 5e-324
    half = 0.5 * x
    n = _series_length(float(nu.min()), float(0.5 * x_max) ** 2)
    k = np.arange(1.0, n)
    terms = np.cumprod((half * half)[..., None] / (k * (k + 1j * nu[..., None])), axis=-1)
    s0 = 1.0 + terms.sum(axis=-1)
    sk = (terms * k).sum(axis=-1)
    lead = _reciprocal_gamma_one_plus_imag(nu) * np.exp(1j * nu * np.log(half))  # c_0 (x/2)^(i nu)
    with np.errstate(over="ignore", invalid="ignore"):  # a K' beyond the floats is refused below
        s1 = (2.0 * sk + 1j * nu * s0) / x  # the terms weighted by (2k + i nu)/x
        k_dk = (-math.pi / np.sinh(math.pi * nu)) * (lead * np.stack([s0, s1])).imag
    if not np.isfinite(k_dk).all():
        raise RangeError("K_(i nu)(x) or K' is not finite on the series path (x below ~1e-308)")
    return k_dk[0], k_dk[1]


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

    Uses the I-combination for x <= max(2, min(|nu|, 30)) and the
    integral representation beyond (and always for nu = 0, where the
    combination is a 0/0 form).
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
    return amp * math.cos(-a * _log_half(x) + arg_gamma_imag(a))


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
