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
from itertools import chain
from typing import Callable, Literal, Sequence, Union

import numpy as np

from .errors import DomainError, RangeError
from .gamma_core import (
    _TINY,
    _arg_gamma_one_plus_imag,
    _re_digamma_one_plus_imag,
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

Method = Literal["series-combination", "integral-representation"]

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
_X_ZERO = 746.0  # e^{-x cosh t} <= e^{-x} is 0 from here on, and x cosh t may overflow
# _k_integral_values' first nodes j T/256, with their levels' bits (k T/64 from linspace, then odd
# multiples of T/128 and of T/256): the nodes of 64 intervals, then the new ones of 128 and 256
_NODES_257 = np.concatenate([np.arange(0, 257, 4), np.arange(2, 256, 4), np.arange(1, 256, 2)])


@dataclass(frozen=True)
class FunctionValue:
    """An evaluated function value with an absolute-error estimate."""

    value: Union[float, complex]
    abs_err_estimate: float
    method: Method


def _check_order(nu: float, allow_zero: bool = True) -> float:
    """The order as a Python float (from an int or a numpy scalar too), once it is in range."""
    if not math.isfinite(nu):
        raise DomainError("order must be finite")
    if abs(nu) > NU_MAX:
        raise DomainError(f"|nu| = {abs(nu):g} exceeds supported bound {NU_MAX:g}")
    if nu == 0.0 and not allow_zero:
        raise DomainError("nu = 0 not supported by this operation")
    return float(nu)


def _check_abscissa(x: float) -> float:
    if not (math.isfinite(x) and x > 0.0):
        raise RangeError(f"abscissa must be finite and > 0, got {x!r}")
    return x


def _check_abscissae(x) -> np.ndarray:
    """x as a float array, once every element is finite and > 0; else _check_abscissa's error."""
    x = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        _check_abscissa(float(x[bad][0]))
    return x


def _x_switch(nu: float | np.ndarray) -> float | np.ndarray:
    """Largest x where the automatic path takes the series at order nu, elementwise for arrays."""
    if isinstance(nu, np.ndarray):
        return np.minimum(np.maximum(nu, X_SWITCH), X_SERIES_MAX)
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


def _phase_err(nu: float, log_half: float) -> float:
    """Relative error of I_{i nu}(x) from its rounded phase psi = nu ln(x/2) - arg Gamma(1 + i nu).

    arg Gamma(1 + i nu) is about nu ln nu - nu; each part of psi is off
    by about 2 eps times its size, bounded by nu |ln(x/2)| and
    nu (|ln nu| + 1).
    """
    nu = abs(nu)
    return 2.0 * _EPS * nu * (abs(log_half) + abs(math.log(nu)) + 1.0) if nu else 0.0


def _i_series(nu_signed: float, x: float, deriv: int = 0) -> tuple[complex, float]:
    """e^{i psi} S = |Gamma(1 + i nu)| I_{i*nu_signed}(x), or an x-derivative, and its error.

    psi = nu ln(x/2) - arg Gamma(1 + i nu); S = sum_k c_k (x/2)^{2k}, c_0 = 1,
    c_k = c_{k-1} / (k (k + i nu)); differentiation multiplies the k-th term
    by falling powers of m = 2k + i nu over x.  Callers scale by |Gamma(i nu)|
    for K, so no factor of size e^{pi nu / 2} is formed.  deriv in {0, 1, 2};
    each pass sums one derivative order with one stopping rule.
    """
    mu = complex(0.0, nu_signed)  # the order i*nu
    half = 0.5 * x
    log_half = math.log(half) if half else _log_half(x)  # _log_half refuses x/2 = 0
    # e^{i psi}; arg Gamma(1 + i nu) is odd in nu, so the series of -nu is the exact conjugate
    prefactor = cmath.exp(complex(0.0, nu_signed * log_half - _arg_gamma_one_plus_imag(nu_signed)))
    h2 = half * half

    c = 1.0
    powxk = 1.0  # (x/2)^{2k}
    total = 0.0j
    max_mag = 0.0
    small_run = 0  # the sum ends after three terms below _SERIES_TINY of it
    last_term_mag = 0.0
    rounding = 0.0  # sum_k k |t_k|: the k-th term carries about k roundings of the c_k recurrence
    for k in range(_SERIES_CAP):
        term = c * powxk
        if deriv:
            m = 2.0 * k + mu
            term *= m / x if deriv == 1 else m * (m - 1.0) / (x * x)
        total += term
        last_term_mag = abs(term)
        rounding += k * last_term_mag
        if last_term_mag > max_mag:
            max_mag = last_term_mag
        ref = abs(total)  # max(|total|, 1e-300), inlined
        if last_term_mag < _SERIES_TINY * (ref if ref >= 1e-300 else 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        kk = k + 1
        c = c / (kk * (kk + mu))
        powxk *= h2
    value = prefactor * total
    err = abs(prefactor) * (last_term_mag + _EPS * (max_mag + rounding))
    # 2 eps |value|: the roundings of e^{i psi} and of the product
    return value, err + (_phase_err(nu_signed, log_half) + 2.0 * _EPS) * abs(value)


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
    pnu = math.pi * abs(nu)
    scale = math.sqrt(math.sinh(pnu) / pnu) if pnu else 1.0  # 1/|Gamma(1 + i nu)|
    return FunctionValue(scale * value, scale * err, "series-combination")


def _k_series(nu: float, x: float, deriv: int = 0) -> tuple[float, float, float]:
    """K (or derivative) via the combination (pi/2i)(I_{-i nu}-I_{i nu})/sinh(pi nu).

    Returns (real value, error estimate, relative imaginary residue), for nu > 0.
    In _i_series' units it is (|Gamma(i nu)| / 2i)(S_- - S_+).
    """
    ip, errp = _i_series(+nu, x, deriv)
    im, errm = _i_series(-nu, x, deriv)
    g = abs_gamma_imag(nu)
    comb = (g / 2j) * (im - ip)
    mag = abs(comb)
    residue = abs(comb.imag) / mag if mag > 0.0 else 0.0
    # cancellation: absolute error of the difference is set by |I| itself
    err = (0.5 * g) * (errp + errm + _EPS * (abs(ip) + abs(im)))
    return comb.real, err, residue


def _k_integral(nu: float, x: float, deriv: int = 0) -> tuple[float, float]:
    """K (or derivative) from int_0^inf e^{-x cosh t} cos(nu t) dt.

    Trapezoidal rule on [0, T] with e^{-x cosh T} <= 1e-20, which converges exponentially
    in the step size.  Each node is evaluated once: a doubling adds its odd nodes j T/n in
    blocks of 4096, and the even ones are the last level's, bitwise where np.linspace puts
    them.  math.fsum takes every node's value block by block, exactly rounded whatever the
    order, so heavy cancellation (nu > x) costs one ulp.  Memory: 8 bytes a node kept
    (2.1 MB at the 12th doubling, 262 145 nodes) and one block's temporaries.
    """
    nu = abs(nu)
    x = min(x, _X_ZERO)  # the same zeros beyond, without overflow in x cosh t
    T = _integral_span(x)

    def f(t: np.ndarray) -> np.ndarray:
        ch = np.cosh(t)
        out = np.exp(-x * ch) * np.cos(nu * t)
        if deriv:
            out *= ch**deriv
        return out

    n = 64
    blocks = [f(np.linspace(0.0, T, n + 1))]
    blocks[0][[0, -1]] *= 0.5

    def trap(n: int) -> float:
        return (T / n) * math.fsum(chain.from_iterable(b.tolist() for b in blocks))

    prev = trap(n)
    last_change = math.inf
    for _ in range(12):
        n *= 2
        blocks += (f(np.arange(j, min(j + 8192, n), 2) * (T / n)) for j in range(1, n, 8192))
        cur = trap(n)
        change = abs(cur - prev)
        # <=, not <: once e^{-x} underflows the sums and the bound are all exactly 0
        stop = change <= 1e-13 * abs(cur) + 1e-18 * math.exp(-x) and last_change < math.inf
        prev, last_change = cur, change
        if stop:
            break
    tail = math.exp(-x * math.cosh(T)) / (x * math.sinh(T))
    return (-prev if deriv == 1 else prev), last_change + tail + _EPS * abs(prev)


def _k_from_i(nu: float, x: float, deriv: int) -> tuple[float, float]:
    """K_{i nu}(x) or an x-derivative, and its error, from one pass over the I_{i nu} series.

    Bitwise equal to _k_series at the same order.  For real x,
    I_{-i nu}(x) = conj I_{i nu}(x), and the two normalised series come
    out as exact conjugates in binary64, so (|Gamma(i nu)| / 2i)(S_- - S_+)
    reduces to K = -|Gamma(i nu)| Im[e^{i psi} S] and its error to
    |Gamma(i nu)| (err + eps |e^{i psi} S|), err with _i_series' phase terms.
    """
    i, err = _i_series(nu, x, deriv)
    g = abs_gamma_imag(nu)
    # 0 - g Im I, the real part of (g/2i)(conj I - I): Im I = 0 gives +0.0
    return 0.0 - g * i.imag, g * (err + _EPS * abs(i))


def _k_eval(
    nu: float, x: float, method: str = "auto", orders: tuple[int, ...] = (0, 1)
) -> tuple[list[tuple[float, float]], Method]:
    """Validate (nu, x), choose the path once, and evaluate K and derivatives.

    Returns [(value, error) for each derivative order in `orders`] and
    the method tag.  The series path is the I-combination for
    x <= _x_switch(nu), one I_{i nu} series pass per order; the integral
    representation serves larger x and always |nu| < _TINY (0 and the
    subnormal orders), where the combination is a 0/0 form: there
    cos(nu t) = 1, so the value is K_0's bitwise.  A value that overflows
    (K' below x ~ 1e-308) raises RangeError.
    """
    nu = abs(_check_order(nu))  # K_{i nu} = K_{-i nu} structurally
    x = _check_abscissa(x)
    if method == "series" and nu < _TINY:
        raise DomainError("nu = 0 is a 0/0 form on the series-combination path")
    if method == "series" and x > X_SERIES_MAX:
        raise RangeError(f"series path supports x <= {X_SERIES_MAX:g}")
    if method == "series" or (method == "auto" and nu >= _TINY and x <= _x_switch(nu)):
        values = [_k_from_i(nu, x, d) for d in orders]
        tag: Method = "series-combination"
    else:
        values, tag = [_k_integral(nu, x, d) for d in orders], "integral-representation"
    for v, _err in values:
        if not math.isfinite(v):
            raise RangeError(f"K_(i nu)(x) or a derivative is not finite at nu = {nu:g}, x = {x!r}")
    return values, tag


def _series_run(nu: float, h2_max: float):
    """Yield the c_k of _i_series' S, from c_0 = 1: as many as it sums at (x/2)^2 = h2_max.

    The I sum of _i_series stops after three terms below 1e-18 of the
    partial sum; at a smaller (x/2)^2 every term is smaller, so the same
    count is enough there.  The count serves K' too: what its own rule
    would add is below 3e-21 of the K' sum (nu >= 1e-3, x <= _x_switch(nu)).
    """
    mu = complex(0.0, nu)
    c = 1.0
    powxk = 1.0
    total = 0.0j
    run = 0
    for k in range(_SERIES_CAP):
        yield c
        term = c * powxk
        total += term
        if abs(term) < _SERIES_TINY * max(abs(total), 1e-300):
            run += 1
            if run >= 3:
                return
        else:
            run = 0
        kk = k + 1
        c = c / (kk * (kk + mu))
        powxk *= h2_max


def _k_series_values(nu: float, x: np.ndarray, series: tuple) -> np.ndarray:
    """K_{i nu} at x <= _x_switch(nu), Horner in (x/2)^2, on the set-up _k_sweeps made per call."""
    coeffs, arg, g = series
    half = 0.5 * x
    if not half.min() > 0.0:
        _log_half(float(x.min()))  # x = 5e-324 refuses as on the scalar path
    h2 = (half * half).astype(complex)  # the product numpy's promotion forms at every term
    poly = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly *= h2
        poly += c
    phase = nu * np.log(half) - arg
    im = np.sin(phase) * poly.real + np.cos(phase) * poly.imag
    return -g * im


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
    meets the rule and the floor, never before 256 intervals.  So the first
    two doublings come from one evaluation of their 257 nodes (a pass per
    level beyond _CHUNK elements), each level's sum taken as before.  The grid
    follows each call's least x, so unlike the series it has no set-up shared by sweeps.
    """
    m = len(nus)
    nu = np.array(nus)
    x = np.minimum(x, _X_ZERO)  # every e^{-x cosh t} stays 0 there, and x cosh t finite
    T = _integral_span(float(x.min()))

    def cos_columns(t: np.ndarray) -> np.ndarray:
        c = np.cos(np.multiply.outer(t, nu))
        return np.concatenate([c, np.abs(c)], axis=1)

    t = (T / 256) * _NODES_257
    cos_nt = cos_columns(t)
    cos_nt[0:65:64] *= 0.5  # [f | |f|] with the endpoints of 64 intervals halved
    levels = (slice(0, 65), slice(65, 129), slice(129, None))
    if x.size * t.size <= _CHUNK:  # each level its own product, 0.0 + as in _trapezoid_sums
        e = np.multiply.outer(x, -np.cosh(t))
        np.exp(e, out=e)
        sums, new_128, new_256 = (0.0 + e[:, s] @ cos_nt[s] for s in levels)
    else:
        sums, new_128, new_256 = (_trapezoid_sums(x, t[s], cos_nt[s]) for s in levels)
    sums += new_128
    value = (T / 128) * sums[:, :m]  # as in _k_integral, the first change never stops the rule
    sums += new_256
    scale = np.exp(-x)[:, None]
    rows = slice(None)  # views, no gathers or scatters, while every row is live
    n = 256
    while True:
        h = T / n
        cur = h * sums[rows, :m]
        change = np.abs(cur - value[rows])
        floor = 8.0 * _EPS * math.sqrt(n) * h * sums[rows, m:]
        bound = 1e-13 * np.abs(cur) + 1e-18 * scale[rows] + floor
        value[rows] = cur
        live = ~np.all(change <= bound, axis=1)
        if not live.any() or n == 64 << 12:  # at most 12 doublings
            return value
        rows = rows if live.all() else np.arange(x.size)[rows][live]
        n *= 2
        t = (T / n) * np.arange(1, n, 2)
        sums[rows] += _trapezoid_sums(x[rows], t, cos_columns(t))


def _k_sweeps(nus: Sequence[float], x_top: Callable[[float], float]) -> Callable:
    """x -> _k_values(nus, x), each order set up once, its c_k counted at x_top(its switch) > 0."""
    orders = [abs(_check_order(float(nu))) for nu in nus]
    switch = [_x_switch(nu) if nu >= _TINY else 0.0 for nu in orders]  # x <= 0 never holds
    series = {}  # of an order with series abscissae: (c_k, arg Gamma(1 + i nu), |Gamma(i nu)|)
    for j, (nu, top) in enumerate(zip(orders, map(x_top, switch))):
        if top:  # else no series abscissa, as always for |nu| < _TINY
            c = np.array(list(_series_run(nu, (0.5 * top) * (0.5 * top))))
            series[j] = c, _arg_gamma_one_plus_imag(nu), abs_gamma_imag(nu)

    def sweep(x: np.ndarray) -> np.ndarray:
        x = _check_abscissae(x)
        out = np.empty((x.size, len(orders)))
        integral = x > min(switch)
        if integral.any():
            top = x[integral].max()
            cols = [j for j, s in enumerate(switch) if s < top]  # the orders with an integral row
            every = integral.all()  # then no mask and no scatter
            k = _k_integral_values([orders[j] for j in cols], x if every else x[integral])
            out[(slice(None) if every else np.flatnonzero(integral)[:, None]), cols] = k
        for j, nu in enumerate(orders):
            rows = x <= switch[j]
            if rows.any():
                rows = slice(None) if rows.all() else rows
                out[rows, j] = _k_series_values(nu, x[rows], series[j])
        return out

    return sweep


def _k_values(nus: Sequence[float], x: np.ndarray) -> np.ndarray:
    """K_{i nu}(x) for every nu in nus at every x, values only: shape (len(x), len(nus)).

    The array form of _k_eval's automatic path, with the same checks and the same switch:
    series for x <= _x_switch(nu) and |nu| >= _TINY, the integral representation elsewhere.
    Each order is set up once per call (_k_sweeps), its c_k counted at its largest series x.
    Horner sums and dot products round apart from the scalar path: within its estimate.
    """
    x = np.asarray(x, dtype=float)  # checked in the sweep, after the orders as on the scalar path
    return _k_sweeps(nus, lambda s: float(x[x <= s].max(initial=0.0)))(x)


def _k_dk_series(
    nu: np.ndarray, x: np.ndarray, dnu: bool = False, split: bool = False
) -> tuple[np.ndarray, ...]:
    """K_{i nu}(x) and K'_{i nu}(x) elementwise over broadcast arrays nu and x, on the series path.

    Orders _TINY <= nu <= NU_MAX (else DomainError), abscissae 0 < x <= _x_switch(nu),
    the series domain of _k_eval and _k_values (else RangeError).  The array
    form of _k_eval's series values, with the same normalisation:
    K = -|Gamma(i nu)| Im[e^{i psi} S_0], K' = -|Gamma(i nu)| Im[e^{i psi} S_1],
    psi = nu ln(x/2) - arg Gamma(1 + i nu).  The terms c_k (x/2)^{2k} of S_0
    (c_0 = 1) are one cumulative product of (x/2)^2 / (k (k + i nu)) per point,
    as many as _i_series sums at the smallest nu and the largest x; S_1
    weights them by (2k + i nu)/x, and the 1/x comes last, so K' overflows
    only where its value does (about x < 1e-308 at nu ~ 1), and then raises
    RangeError.  Each sum runs along the last axis alone, so a point rounds
    alike whether it is passed alone or in an array.  The rounding differs
    from _i_series' running sums, so values agree with it to about its
    error estimate, not bitwise.
    With dnu, dK/dnu and dK'/dnu follow from the same terms, K and K' keeping their
    bits: d c_k/dnu = c_k d_k, d_k = -i sum_{j<=k} 1/(j + i nu), psi' = ln(x/2) - Re
    digamma(1 + i nu), d ln|Gamma(i nu)|/dnu = -1/(2 nu) - (pi/2) coth(pi nu).
    With split, K = K0 + dK and x K' = x K0' + x dK' in four parts instead: the k = 0 term,
    K0 = -|Gamma(i nu)| sin psi and x K0' = -nu |Gamma(i nu)| cos psi, and the rest, from
    T = S_0 - 1 and U + i nu T = x S_1 - i nu.  The rests, O(x^2), are summed as such and
    nothing divides by x, so they keep their relative precision however small x is.
    """
    nu = np.asarray(nu, dtype=float)
    nu_min = float(nu.min())
    if not (nu_min >= _TINY and nu.max() <= NU_MAX):  # nan fails too
        bad = float(nu[~((nu >= _TINY) & (nu <= NU_MAX))].flat[0])
        # nan, inf, above NU_MAX; 0 and subnormal orders as on the scalar series path
        _check_order(0.0 if abs(bad) < _TINY else bad, allow_zero=False)
        raise DomainError(f"order {bad:g} must be > 0 on the series path")
    x = np.asarray(x, dtype=float)
    x_min, x_max = (float(x.min()), float(x.max())) if x.ndim else (float(x),) * 2
    if not (x_min > 0.0 and x_max <= _x_switch(nu_min)):  # nan fails too; the switch grows with nu
        ok = x <= _x_switch(nu)
        if not (x_min > 0.0 and ok.all()):
            _check_abscissae(x)  # nan, inf, <= 0
            bad, top = (float(np.broadcast_to(a, ok.shape)[~ok][0]) for a in (x, _x_switch(nu)))
            raise RangeError(f"series path supports x <= {top:g} at this order, got {bad!r}")
    _log_half(x_min)  # refuses x = 5e-324
    half = 0.5 * x
    k = np.arange(1.0, sum(1 for _c in _series_run(nu_min, (0.5 * x_max) ** 2)))
    # the conjugate series, of I_{-i nu}: Im of its products is -Im of the I_{i nu} ones
    mu = -1j * nu
    terms = np.cumprod((half * half)[..., None] / (k * (k + mu[..., None])), axis=-1)
    rest, rest_x = terms.sum(axis=-1), (terms * (2.0 * k)).sum(axis=-1)  # conj T, conj U
    s0 = 1.0 + rest
    xs1 = rest_x + mu * s0  # x S_1, conjugated
    log_half = np.log(half)
    psi = nu * log_half - _arg_gamma_one_plus_imag(nu)
    cos, sin = np.cos(psi), np.sin(psi)
    # |Gamma(i nu)|; two roots, as nu sinh(pi nu) underflows below nu ~ 1e-154
    g = np.sqrt(math.pi / np.sinh(math.pi * nu)) / np.sqrt(nu)
    if split:  # K0, x K0', then dK and x dK' as K is formed from S_0 below
        rests = (rest, rest_x + mu * rest)  # conj T, conj (U + i nu T)
        return (-g * sin, -g * nu * cos, *(g * (cos * r.imag - sin * r.real) for r in rests))
    with np.errstate(over="ignore", invalid="ignore"):  # a K' beyond the floats is refused below
        # Im[e^{-i psi} conj S] in real arithmetic: numpy rounds a product of two complex
        # scalars apart from the same product inside an array
        k_val = g * (cos * s0.imag - sin * s0.real)
        dk_val = g * (cos * xs1.imag - sin * xs1.real) / x
        out = (k_val, dk_val)
        if dnu:
            # u, v: -i times the nu-derivatives of conj S_0, conj x S_1; conj d_k = i td_k / t_k
            td = terms * np.cumsum(1.0 / (k + mu[..., None]), axis=-1)
            u = td.sum(axis=-1)
            v = (td * (2.0 * k)).sum(axis=-1) + mu * u - s0
            dpsi = log_half - _re_digamma_one_plus_imag(nu)
            b0, b1 = u - dpsi * s0, v - dpsi * xs1
            dlog_g = -0.5 / nu - (0.5 * math.pi) / np.tanh(math.pi * nu)
            # d/dnu Im[e^{-i psi} B] = Re[e^{-i psi} (dB/dnu - i dpsi B)]
            out += (
                dlog_g * k_val + g * (cos * b0.real + sin * b0.imag),
                dlog_g * dk_val + g * (cos * b1.real + sin * b1.imag) / x,
            )
    if not all(np.isfinite(a).all() for a in out):
        raise RangeError("K_(i nu)(x) or K' is not finite on the series path (x below ~1e-308)")
    return out


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
    # subnormal orders make the same 0/0 form as nu = 0 in binary64 and are refused alike
    nu = abs(_check_order(0.0 if abs(nu) < _TINY else nu, allow_zero=False))
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


def _octave_envelope(
    x: float, n_samples: int, freqs: Sequence[float], discrepancy: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Phase-averaged amplitude near x of an x^2-scaled oscillation in u = ln x at each of freqs.

    Samples one octave of u around x, divides discrepancy(xs) by (xs/x)^2,
    within [1/2, 2], and projects it onto cos(f u) and sin(f u) for each f
    by least squares.  The norm of the coefficients does not depend on where
    the phase sits, so halving x shrinks it by a factor close to 4; it is
    the envelope at x itself, and nothing overflows at tiny x.
    """
    u = np.linspace(math.log(x) - 0.5 * math.log(2.0), math.log(x) + 0.5 * math.log(2.0), n_samples)
    xs = np.exp(u)
    y = discrepancy(xs) / (xs / x) ** 2
    basis = np.vstack([trig(f * u) for f in freqs for trig in (np.cos, np.sin)]).T
    coeff, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return math.hypot(*coeff)  # a sum of squares would underflow below coefficients ~1e-154


def smallx_error_envelope(nu: float, x: float, n_samples: int = 16) -> float:
    """Phase-averaged envelope of |K_{i nu} - besselk_smallx_approx| near x.

    The small-x form is the leading series term of K, so the error is the
    rest of the series (dK of _k_dk_series' split), an x^2-scaled oscillation
    in ln x at frequency nu; _octave_envelope fits it over one octave around x.
    """
    nu = abs(_check_order(nu, allow_zero=False))
    x = _check_abscissa(x)
    if x > 1.0:
        raise RangeError("small-x envelope meaningful only for x <= 1")
    return _octave_envelope(x, n_samples, (nu,), lambda xs: _k_dk_series(nu, xs, split=True)[2])


def ode_residual(nu: float, x: float, family: Literal["K", "I"] = "K") -> float:
    """Normalized residual of the self-adjoint modified Bessel equation.

    For family "K": |d/dx(x K') + (nu^2/x - x) K| / ((nu^2/x + x) |K|)
    with all derivatives termwise.  For family "I" the same identity is
    checked for I_{i nu} (complex), normalized the same way.  RangeError outside its x range.
    """
    nu_s = abs(_check_order(nu))
    x = _check_abscissa(x)
    top = X_SERIES_MAX if family == "I" else 700.0  # K underflows, the I series loses its range
    if not 1e-150 <= x <= top:  # below, 1/x^2 of the second derivatives nears the top of the floats
        raise RangeError(f"ode_residual supports 1e-150 <= x <= {top:g}, got {x!r}")
    weight = nu_s * nu_s / x - x
    norm = abs(nu_s * nu_s / x) + x
    if family == "I":
        f0, f1, f2 = (_i_series(nu_s, x, d)[0] for d in (0, 1, 2))
    else:
        (f0, _), (f1, _), (f2, _) = _k_eval(nu_s, x, orders=(0, 1, 2))[0]
    return abs(x * f2 + f1 + weight * f0) / (norm * abs(f0))
