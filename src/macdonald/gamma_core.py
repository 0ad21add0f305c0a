"""Complex gamma-function utilities.

Provides principal-branch log-gamma split into modulus and phase, the
entire reciprocal 1/Gamma, and closed forms for |Gamma(i*nu)| and
arg Gamma(i*nu) on the imaginary axis.  All operations are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

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
    w = sc.loggamma(z)
    return GammaEval(log_modulus=float(w.real), phase=_wrap_phase(float(w.imag)))


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); entire, exactly zero at z = 0, -1, -2, ..."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    if _is_pole(z):
        return 0.0 + 0.0j
    return cmath.exp(-sc.loggamma(z))


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
    phase = log_gamma(complex(0.0, abs(nu))).phase
    return phase if nu > 0 else -phase


def _arg_gamma_imag_continuous(nu: float | np.ndarray) -> float | np.ndarray:
    """Im log Gamma(i nu) for 0 < nu <= 100: arg Gamma(i nu) continued along nu, not wrapped.

    nu is a float (the result is a float) or an array (elementwise).
    scipy's loggamma is analytic off the negative real axis, so its
    imaginary part is continuous along the positive imaginary axis.
    """
    top = np.max(nu)
    if top > _NU_MAX:
        raise DomainError(f"|nu| = {top:g} exceeds supported bound {_NU_MAX:g}")
    phase = sc.loggamma(np.asarray(nu, dtype=float) * 1j).imag
    return phase if np.ndim(nu) else float(phase)


def _reciprocal_gamma_one_plus_imag(nu: np.ndarray) -> np.ndarray:
    """1/Gamma(1 + i nu) elementwise for finite real nu, as reciprocal_gamma computes it."""
    return np.exp(-sc.loggamma(1.0 + 1j * np.asarray(nu, dtype=float)))
