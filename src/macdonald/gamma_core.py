"""Complex gamma-function utilities.

Provides principal-branch log-gamma split into modulus and phase, the
entire reciprocal 1/Gamma, and closed forms for |Gamma(i*nu)| and
arg Gamma(i*nu) on the imaginary axis.  All operations are pure.

log Gamma is computed here, on numpy and the standard library alone
(after Hare, "Computing the principal branch of log-Gamma", J. Algorithms
25 (1997) 221-236): reflection for Re z < 1/2, upward recurrence until
|z| >= 7, then ten terms of Stirling's series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "GammaEval",
    "log_gamma",
    "reciprocal_gamma",
    "abs_gamma_imag",
    "arg_gamma_imag",
]

_ABS_Z_MAX = 1.0e4
_NU_MAX = 100.0
_TINY = 2.2250738585072014e-308  # smallest normal binary64

_LOG_PI = 1.1447298858494002
_LOG_SQRT_2PI = 0.9189385332046727
# B_2k / (2k (2k - 1)), k = 1..10, for Stirling's series at |w| >= 7, where its
# truncation error stays below the rounding of log Gamma(w), a few ulp of ~10
_B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8, _B9, _B10 = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0, -174611.0 / 125400.0,
)
_B_POWERS = np.array([_B2, _B3, _B4, _B5, _B6, _B7, _B8, _B9, _B10], dtype=complex)
_R_STIRLING = 7.0
# k = 1..7 as a column: the array form takes the phases atan2(nu, k) of the factors
# k + i nu that shift 1 + i nu to 8 + i nu
_SHIFTS = np.arange(1.0, _R_STIRLING + 1.0)[:, None]
# B_2k / (2k) = (2k - 1) _Bk, k = 10..1: Stirling's series of psi(w) in r = 1/w^2
_PSI_COEFFS = (np.r_[_B_POWERS.real[::-1], _B1] * np.arange(19.0, 0.0, -2.0)).tolist()
# log Gamma(2 + e) = sum_k _TAYLOR_2[k - 1] e^k, the k-th coefficient (-1)^k (zeta(k) - 1) / k
# (1 - Euler's gamma for k = 1); at |e| < 0.2 the first omitted term is below 1e-18
_R_TAYLOR = 0.2
_TAYLOR_2 = (
    0.42278433509846713, 0.3224670334241132, -0.0673523010531981,
    0.020580808427784546, -0.007385551028673986, 0.0028905103307415234,
    -0.001192753911703261, 0.0005096695247430425, -0.00022315475845357939,
    9.945751278180853e-05, -4.492623673813314e-05, 2.050721277567069e-05,
    -9.439488275268397e-06, 4.374866789907488e-06, -2.039215753801366e-06,
    9.55141213040742e-07, -4.492469198764566e-07,
)


@dataclass(frozen=True)
class GammaEval:
    """log |Gamma(z)| together with the principal phase of Gamma(z)."""

    log_modulus: float
    phase: float  # principal arg Gamma(z), in (-pi, pi]


def _is_pole(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _wrap_phase(p: float) -> float:
    """Reduce a phase to the principal interval (-pi, pi]."""
    p = math.remainder(p, 2.0 * math.pi)
    if p <= -math.pi:
        p += 2.0 * math.pi
    return p


def _stirling_series(w):
    """sum_k B_2k / (2k (2k - 1) w^(2k - 1)), k = 1..10: log Gamma(w) - (w - 1/2) log w + w - log sqrt(2 pi).

    For |w| >= 7 and Re w > 0; complex (by Horner's rule) or complex array.
    An array takes the powers (1/w^2)^j, j = 1..9, by squarings into one
    buffer and sums them as a matrix product: about ten numpy calls where
    Horner's rule makes twenty, whatever the array's size.
    """
    if type(w) is complex:
        r = 1.0 / (w * w)
        s = r * (_B6 + r * (_B7 + r * (_B8 + r * (_B9 + r * _B10))))
        return (_B1 + r * (_B2 + r * (_B3 + r * (_B4 + r * (_B5 + s))))) / w
    u = 1.0 / w.ravel()
    powers = np.empty((9, u.size), dtype=complex)
    np.multiply(u, u, out=powers[0])
    np.multiply(powers[0], powers[0], out=powers[1])
    np.multiply(powers[:2], powers[1], out=powers[2:4])
    np.multiply(powers[:4], powers[3], out=powers[4:8])
    np.multiply(powers[0], powers[7], out=powers[8])
    return (u * (_B1 + _B_POWERS @ powers)).reshape(w.shape)


def _stirling(w: complex) -> complex:
    """log Gamma(w) by Stirling's series, for |w| >= 7 and Re w > 0."""
    return (w - 0.5) * (cmath.log(w) - 1.0) + _LOG_SQRT_2PI - 0.5 + _stirling_series(w)


def _stirling_imag(w):
    """Im log Gamma(w) by Stirling's series, for |w| >= 7 and Re w > 0; complex or complex array.

    Im (w - 1/2)(log w - 1) is formed in real arithmetic: numpy may fuse
    the multiply-adds of a complex product where Python does not, and this
    term, ~Im w ln|w|, has ulps up to 3e-14 at |w| = 50, so float and array
    callers round it alike; the series, below 0.011, differs between them
    by about 1e-18.
    """
    log_w = cmath.log(w) if type(w) is complex else np.log(w)
    return (w.real - 0.5) * log_w.imag + w.imag * (log_w.real - 1.0) + _stirling_series(w).imag


def _sin_pi(x: float) -> float:
    """sin(pi x) to full relative precision near its zeros: the reduction mod 2 is exact."""
    r = math.remainder(x, 2.0)
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z) modulo 2 pi i, without overflow at large |Im z|.

    sin(pi z) = (e^{pi |y|} / 2) (sin(pi x) (1 + e) + i sgn(y) cos(pi x) (1 - e)), e = e^{-2 pi |y|}.
    """
    a = abs(z.imag)
    cos_pi = _sin_pi(0.5 - abs(math.remainder(z.real, 2.0)))
    v = complex(
        _sin_pi(z.real) * (1.0 + math.exp(-2.0 * math.pi * a)),
        cos_pi * math.copysign(-math.expm1(-2.0 * math.pi * a), z.imag),
    )
    return math.pi * a - math.log(2.0) + cmath.log(v)


def _taylor_2(e: complex) -> complex:
    """log Gamma(2 + e) for |e| < 0.2."""
    t = 0.0j
    for c in reversed(_TAYLOR_2):
        t = (t + c) * e
    return t


def _log_gamma(z: complex) -> complex:
    """log Gamma(z) for finite z off the poles; the imaginary part is right modulo 2 pi.

    Near the zeros z = 1 and 2 the Taylor series about 2 keeps the
    absolute error at a few ulp; the shifted Stirling series would lose
    about log Gamma(7) ~ 7 ulp there to cancellation.
    """
    if abs(z - 2.0) < _R_TAYLOR:
        return _taylor_2(z - 2.0)
    if abs(z - 1.0) < _R_TAYLOR:  # Gamma(z) = Gamma(z + 1) / z
        return _taylor_2(z - 1.0) - cmath.log(z)
    if z.real < 0.5:  # Gamma(z) Gamma(1 - z) = pi / sin(pi z)
        return _LOG_PI - _log_sin_pi(z) - _log_gamma(1.0 - z)
    p = 1.0 + 0.0j  # Gamma(z) = Gamma(z + n) / (z (z + 1) ... (z + n - 1)), with |z + n| >= 7
    if abs(z) < _R_STIRLING:
        for _ in range(math.ceil(math.sqrt(_R_STIRLING**2 - z.imag * z.imag) - z.real)):
            p *= z
            z += 1.0
    return _stirling(z) - cmath.log(p)


def log_gamma(z: complex) -> GammaEval:
    """Principal-branch log-gamma of z, split into modulus and phase.

    Raises DomainError at the poles z = 0, -1, -2, ... and for |z| > 1e4.
    Overflow of |Gamma| itself is not an error: the log representation
    stays finite.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    if _is_pole(z):
        raise DomainError(f"gamma pole at z = {z!r}")
    if abs(z) > _ABS_Z_MAX:
        raise DomainError(f"|z| = {abs(z):g} exceeds supported bound {_ABS_Z_MAX:g}")
    w = _log_gamma(z)
    return GammaEval(log_modulus=w.real, phase=_wrap_phase(w.imag))


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); entire, exactly zero at z = 0, -1, -2, ..."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    if _is_pole(z):
        return 0.0 + 0.0j
    return cmath.exp(-_log_gamma(z))


def abs_gamma_imag(nu: float) -> float:
    """|Gamma(i*nu)| = sqrt(pi / (nu * sinh(pi*nu))); even in nu."""
    if nu == 0.0 or not math.isfinite(nu):
        raise DomainError("abs_gamma_imag requires nu != 0 and finite")
    a = abs(nu)
    if a > _NU_MAX:
        raise DomainError(f"|nu| = {a:g} exceeds supported bound {_NU_MAX:g}")
    if a < _TINY:
        raise DomainError(f"|nu| = {a:g} is below the smallest normal float {_TINY:g}")
    den = a * math.sinh(math.pi * a)
    if den < _TINY:  # pi nu^2 underflows; sinh(pi nu) = pi nu to binary64 there
        return 1.0 / a
    return math.sqrt(math.pi / den)


def arg_gamma_imag(nu: float) -> float:
    """Principal arg Gamma(i*nu) = arg Gamma(1 + i*nu) - pi/2 (nu > 0); odd up to the branch."""
    if nu == 0.0 or not math.isfinite(nu):
        raise DomainError("arg_gamma_imag requires nu != 0 and finite")
    phase = _wrap_phase(_arg_gamma_one_plus_imag(abs(nu)) - 0.5 * math.pi)
    return phase if nu > 0 else -phase


def _arg_gamma_one_plus_imag(nu: float | np.ndarray) -> float | np.ndarray:
    """arg Gamma(1 + i nu) continued from nu = 0, for |nu| <= 100: a float, or an array elementwise.

    Im log Gamma(8 + i nu) by Stirling's series less the phases atan2(nu, k),
    k = 1..7, of (1 + i nu) ... (7 + i nu); odd in nu.  Both parts are O(nu)
    at small nu, so the result keeps its relative precision there, where
    pi/2 + arg Gamma(i nu) would cancel.  The float and array forms agree to
    about an ulp of the larger part.  The package's one phase of Gamma on
    the imaginary axis.
    """
    top = np.abs(nu).max() if isinstance(nu, np.ndarray) else abs(nu)
    if top > _NU_MAX:
        raise DomainError(f"|nu| = {top:g} exceeds supported bound {_NU_MAX:g}")
    if not isinstance(nu, np.ndarray):  # written out: a generator sum costs several times the call
        return _stirling_imag(complex(_R_STIRLING + 1.0, nu)) - (
            math.atan2(nu, 1.0) + math.atan2(nu, 2.0) + math.atan2(nu, 3.0) + math.atan2(nu, 4.0)
            + math.atan2(nu, 5.0) + math.atan2(nu, 6.0) + math.atan2(nu, 7.0)
        )
    flat = nu.ravel()
    phase_p = np.arctan2(flat, _SHIFTS).sum(axis=0)
    return (_stirling_imag(_R_STIRLING + 1.0 + 1j * flat) - phase_p).reshape(nu.shape)


def _re_digamma_one_plus_imag(nu: float | np.ndarray) -> float | np.ndarray:
    """Re psi(1 + i nu) = d/dnu arg Gamma(1 + i nu): a float, or an array elementwise; even in nu.

    The shift of _arg_gamma_one_plus_imag: Re psi(8 + i nu) by Stirling's series less
    sum_j j / (j^2 + nu^2), j = 1..7, each part as its value at nu = 0 (together
    psi(1) = -Euler's gamma) plus its O(nu^2) change, so that nothing cancels at small nu.
    """
    lone = np.ndim(nu) == 0  # one order takes Python's scalar arithmetic, several times faster
    nu = float(nu) if lone else np.asarray(nu, dtype=float)
    nu2, j, w = nu * nu, _SHIFTS.ravel(), _R_STIRLING + 1.0  # w + i nu = 8 + i nu
    out = (
        0.5 * np.log1p(nu2 / w**2) + nu2 / (2.0 * w * (w**2 + nu2))  # ln|w| - Re 1/(2w)
        - (_psi_series(1.0 / (w + 1j * nu) ** 2).real - _psi_series(w**-2))
        + nu2 * (1.0 / (j * np.add.outer(nu2, j * j))).sum(axis=-1)  # 1/j - j/(j^2 + nu^2)
        - np.euler_gamma
    )
    return float(out) if lone else out


def _psi_series(r):
    """sum_k B_2k r^k / (2k), k = 1..10, by Horner's rule: Stirling's series of psi at 1/sqrt(r)."""
    s = 0.0
    for b in _PSI_COEFFS:
        s = (s + b) * r
    return s
