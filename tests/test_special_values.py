"""Special-value fuzz over every computing function of the public API.

Each function is called on IEEE special and edge values in every numeric
argument: signed zeros, a subnormal, 1e-300, moderate values, the order
bound 50 and either side of it, the exp() overflow edge 700/746, 1e308,
negatives, nan and both infinities.  Every call must return finite numbers
(values and error estimates alike) or raise a MacdonaldError, and no call
may emit a RuntimeWarning.  Functions of one or two numbers take every
combination; those of three or more take a seeded sample, plus the inputs
of defects once found here.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np

import macdonald as m

SPECIAL = (
    0.0, -0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5, 49.9, 50.0, 60.0, 700.0, 746.0, 1e308,
    -1.0, math.nan, math.inf, -math.inf,
)
SAMPLE = 300  # drawn argument tuples per function of three numbers or more


def _pair(f):
    return lambda nu, nup, xi: f(m.PairSpec(nu, nup, xi))


def _quadrature(nu, nup, xi, abs_tol, rel_tol, upper):
    return m.kernel_quadrature(m.PairSpec(nu, nup, xi), m.QuadratureSpec(abs_tol, rel_tol, upper))


def _weak_limit(nu, xi, center, width):
    return m.weak_limit_test(nu, [xi], m.TestFunctionSpec("gaussian-bump", center, width))


# public name -> (call on numbers, how many numbers, inputs that once failed)
CALLS = {
    "log_gamma": (lambda re, im: m.log_gamma(complex(re, im)), 2, ()),
    "reciprocal_gamma": (lambda re, im: m.reciprocal_gamma(complex(re, im)), 2, ()),
    "abs_gamma_imag": (m.abs_gamma_imag, 1, ()),
    "arg_gamma_imag": (m.arg_gamma_imag, 1, ()),
    "besseli_imag": (m.besseli_imag, 2, ()),
    "besselk_imag": (m.besselk_imag, 2, ()),
    "besselk_dx": (m.besselk_dx, 2, ()),
    "besselk_smallx_approx": (m.besselk_smallx_approx, 2, ()),
    "besselk_largex_approx": (m.besselk_largex_approx, 2, ()),
    "combination_imag_residue": (m.combination_imag_residue, 2, ()),
    "ode_residual": (m.ode_residual, 2, ()),
    "smallx_error_envelope": (m.smallx_error_envelope, 2, ()),
    "kernel_boundary": (_pair(m.kernel_boundary), 3, [(1e-300, 1.0, 1e-300), (50.0, 1e-300, 1e-300)]),
    "kernel_quadrature": (_quadrature, 6, [(1.0, 2.0, 0.1, 1e-11, 1e-11, math.nan)]),
    "kernel_asymptotic": (_pair(m.kernel_asymptotic), 3, ()),
    "kl_weight": (m.kl_weight, 1, ()),
    "phase_function": (m.phase_function, 2, ()),
    "delta_model": (m.delta_model, 2, [(2.0, 1e308)]),
    "diagonal_limit": (m.diagonal_limit, 2, ()),
    "weak_limit_test": (_weak_limit, 4, [(0.3, 5e-324, 50.0, 1e-300)]),
    "asymptotic_envelope": (m.asymptotic_envelope, 3, ()),
}


def _finite(out) -> bool:
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out) if f.name != "method")
    if isinstance(out, tuple):
        return all(_finite(v) for v in out)
    if isinstance(out, complex):
        return math.isfinite(out.real) and math.isfinite(out.imag)
    return isinstance(out, float) and math.isfinite(out)


def _arguments(n: int, pinned, rng) -> list[tuple]:
    if len(SPECIAL) ** n <= SAMPLE:
        return [*itertools.product(SPECIAL, repeat=n), *pinned]
    drawn = rng.integers(len(SPECIAL), size=(SAMPLE, n))
    return [*(tuple(SPECIAL[i] for i in row) for row in drawn), *pinned]


def test_every_computing_function_is_fuzzed():
    public = {name: getattr(m, name) for name in m.__all__}
    functions = {name for name, obj in public.items() if callable(obj) and not isinstance(obj, type)}
    assert functions == set(CALLS)


def test_finite_or_typed_refusal_without_warnings():
    rng = np.random.default_rng(29)
    bad = []
    for name, (call, n, pinned) in CALLS.items():
        for args in _arguments(n, pinned, rng):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out = call(*args)
                except m.MacdonaldError:
                    continue
                except Exception as exc:  # an untyped error, or a RuntimeWarning raised as one
                    bad.append((name, args, f"{type(exc).__name__}: {exc}"))
                    continue
            if not _finite(out):
                bad.append((name, args, repr(out)))
    assert not bad, "\n".join(map(str, bad[:20])) + f"\n({len(bad)} in all)"
