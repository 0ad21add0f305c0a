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
_R_STIRLING = 7.0
_SHIFTS = np.arange(_R_STIRLING)  # the array forms shift every point by 7
_LOOP_MAX = 16  # below this size numpy's per-call overhead outweighs the per-element work
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

    For |w| >= 7 and Re w > 0; complex or complex array.
    """
    r = 1.0 / (w * w)
    s = r * (_B6 + r * (_B7 + r * (_B8 + r * (_B9 + r * _B10))))
    return (_B1 + r * (_B2 + r * (_B3 + r * (_B4 + r * (_B5 + s))))) / w


def _stirling(w: complex) -> complex:
    """log Gamma(w) by Stirling's series, for |w| >= 7 and Re w > 0."""
    return (w - 0.5) * (cmath.log(w) - 1.0) + _LOG_SQRT_2PI - 0.5 + _stirling_series(w)


def _stirling_imag(w):
    """Im log Gamma(w) by Stirling's series, for |w| >= 7 and Re w > 0; complex or complex array.

    Im (w - 1/2)(log w - 1) is formed in real arithmetic: numpy may fuse
    the multiply-adds of a complex product where Python does not, and this
    term, ~Im w ln|w|, has ulps up to 3e-14 at |w| = 50, so float and array
    callers round it alike.
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
    """Principal arg Gamma(i*nu); odd in nu up to the principal branch."""
    if nu == 0.0 or not math.isfinite(nu):
        raise DomainError("arg_gamma_imag requires nu != 0 and finite")
    if abs(nu) > _NU_MAX:
        raise DomainError(f"|nu| = {abs(nu):g} exceeds supported bound {_NU_MAX:g}")
    phase = _wrap_phase(_arg_gamma_imag_continuous(float(abs(nu))))
    return phase if nu > 0 else -phase


def _arg_gamma_imag_continuous(nu: float | np.ndarray) -> float | np.ndarray:
    """Im log Gamma(i nu) for 0 < nu <= 100: arg Gamma(i nu) continued along nu, not wrapped.

    nu is a float (the result is a float) or an array (elementwise).  The
    principal log Gamma is analytic off the negative real axis; there
    log Gamma(z) = log Gamma(z + 7) - sum_k log(z + k), k = 0..6, with
    principal logs, whose phases arctan2(nu, k) are continuous in nu > 0.
    """
    if np.ndim(nu) == 0:
        nu = float(nu)
    top = nu if isinstance(nu, float) else np.max(nu)
    if top > _NU_MAX:
        raise DomainError(f"|nu| = {top:g} exceeds supported bound {_NU_MAX:g}")
    if isinstance(nu, float):
        return _stirling_imag(complex(_R_STIRLING, nu)) - sum(math.atan2(nu, k) for k in range(7))
    return _stirling_imag(_R_STIRLING + 1j * nu) - np.arctan2(nu[..., None], _SHIFTS).sum(axis=-1)


def _reciprocal_gamma_one_plus_imag(nu: float | np.ndarray) -> complex | np.ndarray:
    """1/Gamma(1 + i nu) for real |nu| <= 100: nu a float (a complex result) or an array (elementwise).

    1/Gamma(1 + i nu) = p / Gamma(8 + i nu), p = (1 + i nu)(2 + i nu) ... (7 + i nu).
    The modulus is closed, |Gamma(1 + i nu)|^2 = pi nu / sinh(pi nu): exp(-log Gamma)
    would carry the rounding of log Gamma(8) ~ 8.5 into it.  The phase is
    that of p less Im log Gamma(8 + i nu), ~nu ln nu, whose ulp reaches
    3e-14 at nu = 50.  That large phase comes from the complex log and real
    arithmetic only, which numpy and cmath round alike, so the float and
    array forms agree to about an ulp of the result: bessel_im's scalar and
    array series take c_0 from them.  The array form takes nu != 0; up to
    _LOOP_MAX elements it loops over the float form, which is then faster.
    """
    x = math.pi * nu
    if isinstance(nu, float):
        z = complex(1.0, nu)
        p = z * (z + 1.0) * (z + 2.0) * (z + 3.0) * (z + 4.0) * (z + 5.0) * (z + 6.0)
        modulus = math.sqrt(math.sinh(x) / x) if x else 1.0
        return modulus / abs(p) * p * cmath.exp(complex(0.0, -_stirling_imag(z + _R_STIRLING)))
    if nu.size <= _LOOP_MAX:
        out = [_reciprocal_gamma_one_plus_imag(v) for v in nu.ravel().tolist()]
        return np.array(out, dtype=complex).reshape(nu.shape)
    z = 1.0 + 1j * nu
    p = np.prod(z[..., None] + _SHIFTS, axis=-1)
    return np.sqrt(np.sinh(x) / x) / np.abs(p) * p * np.exp(-1j * _stirling_imag(z + _R_STIRLING))
