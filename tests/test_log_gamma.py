"""The numpy-only complex log Gamma of gamma_core against 40-digit mpmath, with scipy as a yardstick.

Errors are measured as |computed - reference| / max(1, |log Gamma|) on the
complex log Gamma, the phase compared modulo 2 pi where the public
log_gamma wraps it.  Each grid is seeded; each region must come within
1e-14 and within twice scipy's own error on the same points.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sc

from macdonald.gamma_core import (
    _arg_gamma_imag_continuous,
    _reciprocal_gamma_one_plus_imag,
    log_gamma,
    reciprocal_gamma,
)

import oracles

N = 150


def _reflection(rng):
    return [complex(rng.uniform(-60.0, 0.5), rng.uniform(-60.0, 60.0)) for _ in range(N)]


def _right_half_plane(rng):
    return [complex(rng.uniform(0.5, 12.0), rng.uniform(-12.0, 12.0)) for _ in range(N)]


def _tiny(rng):
    return [cmath.rect(10.0 ** rng.uniform(-300.0, -100.0), rng.uniform(-math.pi, math.pi))
            for _ in range(N)]


def _large(rng):
    return [cmath.rect(10.0 ** rng.uniform(2.0, 4.0), rng.uniform(-math.pi, math.pi))
            for _ in range(N)]


def _near_poles(rng):
    out = []
    for _ in range(N):
        offset = 10.0 ** rng.uniform(-12.0, -1.0) * rng.choice([-1.0, 1.0])
        imag = float(rng.choice([0.0, 1e-9, -1e-3]))
        out.append(complex(-float(rng.integers(0, 40)) + offset, imag))
    return out


def _near_one_and_two(rng):
    return [complex(rng.choice([1.0, 2.0]) + rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            for _ in range(N)]


def _error(phase_wrapped, value, ref):
    """Normalized error of a log Gamma value given as log modulus + i phase."""
    d = value - ref
    dphase = math.remainder(d.imag, 2.0 * math.pi) if phase_wrapped else d.imag
    return abs(complex(d.real, dphase)) / max(1.0, abs(ref))


@pytest.mark.parametrize(
    "region, seed",
    [
        (_reflection, 1),
        (_right_half_plane, 2),
        (_tiny, 3),
        (_large, 4),
        (_near_poles, 5),
        (_near_one_and_two, 6),
    ],
)
def test_log_gamma_against_mpmath_and_scipy(region, seed):
    ours, scipys = [], []
    for z in region(np.random.default_rng(seed)):
        ref = complex(oracles.log_gamma_ref(z))
        ge = log_gamma(z)
        ours.append(_error(True, complex(ge.log_modulus, ge.phase), ref))
        scipys.append(_error(True, complex(sc.loggamma(z)), ref))
    worst, scipy_worst = max(ours), max(scipys)
    assert worst <= 1e-14, worst
    assert worst <= 2.0 * scipy_worst, (worst, scipy_worst)


def test_reciprocal_gamma_against_mpmath():
    rng = np.random.default_rng(7)
    zs = [complex(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)) for _ in range(N)]
    with mp.workdps(40):
        for z in zs:
            ref = complex(mp.rgamma(mp.mpc(z)))
            log_ref = abs(complex(mp.loggamma(mp.mpc(z))))
            # an absolute error d in log Gamma is a relative error d in 1/Gamma
            assert abs(reciprocal_gamma(z) / ref - 1.0) <= 1e-14 * max(1.0, log_ref), z


def test_continuous_arg_against_mpmath():
    rng = np.random.default_rng(8)
    nus = np.concatenate([10.0 ** rng.uniform(-8.0, 2.0, 300), [1e-300, 1.0, 100.0]])
    with mp.workdps(40):
        ref = np.array([float(mp.loggamma(mp.mpc(0, v)).imag) for v in nus])  # unwrapped
    got = _arg_gamma_imag_continuous(nus)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    assert ref.max() > 300.0  # far beyond the principal interval at nu = 100
    for nu in (1e-300, 0.5, 20.0, 100.0):
        assert _arg_gamma_imag_continuous(nu) == pytest.approx(
            float(mp.loggamma(mp.mpc(0, nu)).imag), rel=1e-14, abs=1e-14
        )
    assert _arg_gamma_imag_continuous(2) == _arg_gamma_imag_continuous(2.0)  # an int order


def test_reciprocal_gamma_one_plus_imag_against_mpmath():
    rng = np.random.default_rng(9)
    nus = np.sort(np.concatenate([10.0 ** rng.uniform(-300.0, -3.0, 30), rng.uniform(1e-3, 50.0, 300)]))
    with mp.workdps(40):
        ref = np.array([complex(mp.rgamma(mp.mpc(1, v))) for v in nus])
        log_ref = np.array([abs(complex(mp.loggamma(mp.mpc(1, v)))) for v in nus])
    for got in (
        _reciprocal_gamma_one_plus_imag(nus),
        np.array([_reciprocal_gamma_one_plus_imag(float(v)) for v in nus]),
    ):
        rel = np.abs(got / ref - 1.0)
        assert rel[nus <= 10.0].max() <= 1e-14
        # beyond: the phase Im log Gamma(1 + i nu) ~ nu ln nu - nu reaches ~145 at nu = 50,
        # and its ulp alone is then 2.8e-14 of the value
        assert np.all(rel <= 1e-14 * np.maximum(1.0, log_ref))
    assert _reciprocal_gamma_one_plus_imag(0.0) == 1.0
    assert _reciprocal_gamma_one_plus_imag(-0.7) == _reciprocal_gamma_one_plus_imag(0.7).conjugate()


def test_float_and_array_forms_agree():
    # bessel_im's scalar series takes c_0 from the float form, its array series from
    # the array form; the two must not differ by the ulps of the phase ~ nu ln nu
    nus = np.random.default_rng(10).uniform(1e-3, 50.0, 2000)
    array = _reciprocal_gamma_one_plus_imag(nus)
    floats = np.array([_reciprocal_gamma_one_plus_imag(float(v)) for v in nus])
    assert np.abs(array / floats - 1.0).max() <= 2e-15
