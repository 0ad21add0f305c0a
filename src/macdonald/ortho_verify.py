"""Numerical verification of the imaginary-order orthogonality chain.

Implements the truncated overlap integral in three independent ways
(Wronskian boundary term, direct quadrature, small-cutoff sinc form),
the delta-sequence kernel with a phase perturbation, and the smeared
weak-limit test that drives the truncated integrals toward the
continuum-normalization weight pi^2/(2 nu sinh(pi nu)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Literal, Optional, Sequence

from ._numpy import np
from .bessel_im import (
    _EPS,
    _X_ZERO,
    _check_order,
    _k_dk_series,
    _k_eval,
    _k_sweeps,
    _log_half,
    _octave_envelope,
)
from .errors import ConvergenceError, DomainError, NearDiagonalError, RangeError
from .gamma_core import _TINY, _arg_gamma_one_plus_imag, arg_gamma_imag

__all__ = [
    "PairSpec",
    "KernelValue",
    "QuadratureSpec",
    "TestFunctionSpec",
    "WeakLimitReport",
    "kernel_boundary",
    "kernel_quadrature",
    "kernel_asymptotic",
    "kl_weight",
    "phase_function",
    "delta_model",
    "diagonal_limit",
    "weak_limit_test",
    "asymptotic_envelope",
]

_DIAG_GUARD = 1.0e-8
_DIAG_WINDOW = 1.0e-6
# diagonal_limit's smallest order: its closed form holds the terms d ln|Gamma(i nu)|/dnu ~ -1/nu
# of dK/dnu and d(xi K')/dnu, which cancel in the Wronskian to about eps/nu^2 of the value
_DIAG_NU_MIN = 1.0e-4
_GK_LIMIT = 400  # bisections _gauss_kronrod may add to its first partition


def __getattr__(name: str):
    """`integrate` is scipy.integrate, imported on first access (PEP 562).

    Nothing in the package uses it: perfbench/tracer.py rebinds
    `ortho_verify.integrate.quad`, and this keeps scipy off the import path
    of everything else.  The benchmark change of ROADMAP item 1 deletes it.
    """
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _store_floats(spec, *names: str) -> None:
    """Store the checked fields of a frozen spec as Python floats (from ints or numpy scalars)."""
    for name in names:
        object.__setattr__(spec, name, float(getattr(spec, name)))


@dataclass(frozen=True)
class PairSpec:
    """One truncated overlap integral: orders (nu, nu_prime), lower cutoff xi."""

    nu: float
    nu_prime: float
    xi: float

    def __post_init__(self):
        if not (self.nu > 0.0 and self.nu_prime > 0.0):
            raise DomainError("orders must be > 0")
        # the asymptotic form additionally needs xi <= 0.1; the boundary
        # and quadrature routes are valid for any positive cutoff
        if not (0.0 < self.xi < math.inf):
            raise DomainError("cutoff xi must be positive and finite")
        _store_floats(self, "nu", "nu_prime", "xi")


@dataclass(frozen=True)
class KernelValue:
    value: float
    method: Literal["boundary-term", "quadrature", "asymptotic"]
    abs_err_estimate: float = 0.0


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1.0e-11
    rel_tol: float = 1.0e-11
    upper: Optional[float] = None  # derived from the tail bound when None

    def __post_init__(self):
        if not (0.0 <= self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf):
            raise DomainError("tolerances must be finite and >= 0")
        if self.upper is not None and not 0.0 < self.upper < math.inf:
            raise DomainError("upper cutoff must be positive and finite")


@dataclass(frozen=True)
class TestFunctionSpec:
    """Smooth, effectively compactly supported test function.

    gaussian-bump: exp(-(v - center)^2 / (2 width^2))
    smooth-compact-bump: exp(1 - 1/(1 - u^2)) on |u| < 1, u = (v - center)/width
    Both have value 1 at the center.
    """

    kind: Literal["gaussian-bump", "smooth-compact-bump"]
    center: float
    width: float

    __test__ = False  # not a pytest test class despite the name

    def __post_init__(self):
        if self.kind not in ("gaussian-bump", "smooth-compact-bump"):
            raise DomainError(f"unknown test-function kind {self.kind!r}")
        if not (self.center > 0.0 and self.width > 0.0):
            raise DomainError("center and width must be > 0")
        _store_floats(self, "center", "width")

    def __call__(self, v: float | np.ndarray) -> float | np.ndarray:
        """phi(v) for a float v (a float), or elementwise over an array of v."""
        u = (np.asarray(v, dtype=float) - self.center) / self.width
        with np.errstate(over="ignore"):  # u or u u overflows only where phi is 0 exactly
            if self.kind == "gaussian-bump":
                out = np.exp(-0.5 * u * u)
            else:
                inside = np.abs(u) < 1.0
                out = np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - u * u, 1.0)), 0.0)
        return out if out.ndim else float(out)

    def support(self) -> tuple[float, float]:
        """Interval outside which the function is negligible (< 1e-14)."""
        if self.kind == "gaussian-bump":
            r = 8.0 * self.width
        else:
            r = self.width
        return (self.center - r, self.center + r)

    def mass_fraction_outside_positive_axis(self) -> float:
        """Fraction of integral mass at v <= 0; must stay small for weak-limit use."""
        if self.kind == "smooth-compact-bump":
            return 0.0 if self.center - self.width >= 0.0 else 1.0
        z = self.center / self.width
        return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class WeakLimitReport:
    nu: float
    xi_sequence: tuple[float, ...]
    a_sequence: tuple[float, ...]  # a = -ln(xi/2), the natural limit scale
    smeared_values: tuple[float, ...]
    target: float
    errors: tuple[float, ...]
    reflected_term_bound: float


def _wronskian_term(nu, nup, k1, d1, k2, d2):
    """-(K_{i nu} xi K'_{i nu'} - K_{i nu'} xi K'_{i nu}) / (nu^2 - nu'^2) from the values at xi.

    d1, d2 are the x-scaled xi K'; elementwise over arrays of nu' and the K values.
    """
    return -(k1 * d2 - k2 * d1) / (nu * nu - nup * nup)


def kernel_boundary(pair: PairSpec) -> KernelValue:
    """Truncated integral via the Wronskian boundary term.

    value = -xi [K_{i nu}(xi) K'_{i nu'}(xi) - K_{i nu'}(xi) K'_{i nu}(xi)]
            / (nu^2 - nu'^2)
    From _k_eval's K and xi K', with no factor xi.  Its estimate carries their four
    estimates through the products, with 4 eps of each product for the roundings of
    the products and the difference.  Raises RangeError where that estimate is not
    finite (an estimate overflows at tiny orders).
    """
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    if abs(nu - nup) < _DIAG_GUARD:  # refuse before any K is evaluated
        raise NearDiagonalError(
            f"|nu - nu'| = {abs(nu - nup):.3g} < {_DIAG_GUARD:g}; use diagonal_limit"
        )
    ((k1, e1), (d1, f1)), _tag = _k_eval(nu, xi)
    ((k2, e2), (d2, f2)), _tag = _k_eval(nup, xi)
    value = _wronskian_term(nu, nup, k1, d1, k2, d2)
    products = abs(d2) * e1 + abs(k1) * f2 + abs(d1) * e2 + abs(k2) * f1
    err = (products + 4.0 * _EPS * (abs(k1 * d2) + abs(k2 * d1))) / abs(nu * nu - nup * nup)
    if not err < math.inf:  # nan too
        raise RangeError(
            f"boundary-term error estimate is not finite at nu = {nu:g}, nu' = {nup:g}, xi = {xi:g}"
        )
    return KernelValue(value=value, method="boundary-term", abs_err_estimate=err)


def _tail_cutoff(abs_tol: float) -> float:
    """Smallest U with (pi/(4 U^2)) e^{-2U} below abs_tol (large-x decay bound)."""
    u = 5.0
    while (math.pi / (4.0 * u * u)) * math.exp(-2.0 * u) >= abs_tol and u < 400.0:
        u += 0.5
    return u


# Gauss-Kronrod G7K15 on [-1, 1], QUADPACK's qk15 (Piessens et al., 1983):
# Kronrod nodes from -1 to the centre; the Gauss nodes are every second one.
_XK = (
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
)


@cache
def _gk_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 15 nodes on [-1, 1], and their K15 | G7 weights as two columns."""
    nodes = np.array(_XK + tuple(-x for x in _XK[-2::-1]))
    return nodes, np.column_stack([w + w[-2::-1] for w in (_WK, _WG)])


def _panel_edges(cuts: Sequence[float], omega: float) -> np.ndarray:
    """Breakpoints that split each interval between successive cuts into equal panels.

    One panel per half-period pi/omega of an oscillation at angular
    frequency omega, at least one per interval.
    """
    cuts = [float(c) for c in cuts]
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        m = max(1, math.ceil(omega * (b - a) / math.pi))
        parts.append(np.arange(m) * ((b - a) / m) + a)  # np.linspace(a, b, m + 1)[:-1], bitwise
    parts.append(cuts[-1:])
    return np.concatenate(parts)


def _gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    epsabs: float,
    epsrel: float,
) -> tuple[list[float], list[float], list[float]]:
    """Adaptive G7K15 of f over (edges[0], edges[-1]), starting from the panels between the edges.

    f maps N nodes to N values, or to m components of N values each, shape
    (m, N); the components share every panel.  Each sweep evaluates f once,
    at the 15 nodes of every pending panel.  A panel's error in a component
    is max(|K15 - G7|, 50 eps r sum w|f|), the second term QUADPACK's
    roundoff floor.  A component's tolerance is max(epsabs, epsrel |value|),
    raised to its summed floor, 50 eps of int |f|, where that is larger: no
    estimate falls below the floor, so where the integrand cancels a
    tolerance beneath it could never be met.  An epsrel below 50 eps raises
    it only to epsrel int |f|, so a request finer than binary64 can show
    still misses (QUADPACK refuses such an epsrel where epsabs <= 0).  The
    sweeps stop once every component's summed error is within its
    tolerance; until then a panel within its share of each component's
    tolerance (by width) is accepted and the rest are bisected, the worst
    relative to its tolerance first, as long as the bisections number at
    most _GK_LIMIT in all; the panels between the edges do not count.
    Returns (values, summed error estimates, tolerances), one Python float
    per component.
    """
    lo, hi = edges[:-1], edges[1:]
    length = edges[-1] - edges[0]
    done_value = done_err = done_floor = 0.0  # panels accepted, or left as they are at the limit
    limit = _GK_LIMIT
    lift = min(1.0, epsrel / (50.0 * _EPS))  # the share of the floor a tolerance may rise to
    nodes, weights = _gk_rule()
    while True:
        centre, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f((centre[:, None] + r[:, None] * nodes).ravel()).reshape(-1, nodes.size)
        kg = r[:, None] * (fx @ weights).reshape(-1, r.size, 2)  # (m, panels, K15 | G7)
        k15 = kg[..., 0]
        floor = 50.0 * _EPS * r * (np.abs(fx) @ weights[:, 0]).reshape(-1, r.size)
        err = np.maximum(np.abs(k15 - kg[..., 1]), floor)
        value = (done_value + k15.sum(axis=1)).tolist()
        total_err = (done_err + err.sum(axis=1)).tolist()
        tol = [max(epsabs, epsrel * abs(v)) for v in value]
        if any(e > t for e, t in zip(total_err, tol)):  # else every floor is within it too
            total_floor = (done_floor + floor.sum(axis=1)).tolist()
            tol = [max(t, lift * fl) for t, fl in zip(tol, total_floor)]
        if all(e <= t for e, t in zip(total_err, tol)):
            return value, total_err, tol
        excess = err[0]  # each panel's worst error, on the scale of the first tolerance
        for j in range(1, len(tol)):
            excess = np.maximum(excess, err[j] * (tol[0] / tol[j]))
        bad = np.flatnonzero(~(excess <= tol[0] * (hi - lo) / length))  # nan too
        split = bad[np.argsort(-excess[bad], kind="stable")][:limit]
        keep = np.ones(r.size, dtype=bool)
        keep[split] = False
        done_value += k15[:, keep].sum(axis=1)
        done_err += err[:, keep].sum(axis=1)
        done_floor += floor[:, keep].sum(axis=1)
        if not split.size:
            return done_value.tolist(), done_err.tolist(), tol
        limit -= split.size
        lo = np.concatenate([lo[split], centre[split]])
        hi = np.concatenate([centre[split], hi[split]])


# kernel_quadrature's first-partition edges in u = ln x: near x = 1 the product turns from
# oscillating in u to decaying like e^{-2x}, and x = 2, 4, 8 step through that decay
_QUADRATURE_CUTS = (-2.0, -1.0, 0.0, math.log(2.0), math.log(4.0), math.log(8.0))


def _quadrature_edges(xi: float, upper: float, omega: float) -> np.ndarray:
    """kernel_quadrature's first partition of (ln xi, ln U) in u = ln x.

    One panel per half-period pi / omega, and the edges of _QUADRATURE_CUTS
    (x = e^-2, e^-1, 1, 2, 4, 8) that lie inside: one panel across the turn
    from oscillation to decay, or across decades of that decay, bisects
    its way down.
    """
    a, b = math.log(xi), math.log(upper)
    return _panel_edges([a, *(c for c in _QUADRATURE_CUTS if a < c < b), b], omega)


def kernel_quadrature(pair: PairSpec, quad: QuadratureSpec = QuadratureSpec()) -> KernelValue:
    """Adaptive quadrature of int_xi^U K_{i nu} K_{i nu'} / x dx plus tail bound.

    One adaptive G7K15 run (_gauss_kronrod) in u = ln x over (ln xi, ln U), U at most
    746 where xi is below it (K is exactly 0 from there on): dx/x = du, and in u
    the product oscillates at angular frequency at most nu + nu' and, beyond
    x ~ 1, decays like e^{-2x} within a short stretch.
    The first partition (_quadrature_edges) has one panel per half-period
    pi / (nu + nu'), however many that is, an edge at x = 1 between the
    two regimes, and edges at x = e^-2, e^-1, 2, 4 and 8 on either side of
    it; bisection adds at most 400 panels.  Each pass evaluates
    both orders at all of its nodes in one array call (bessel_im._k_sweeps),
    on one set-up of each order for every pass.  The estimate is refused
    beyond 10 times the tolerance abs_tol + rel_tol |value|, raised to the
    G7K15 rounding floor as _gauss_kronrod raises its own: at xi ~ 1e-300
    and small orders the product cancels over ~700 units of u, and the
    floor alone exceeds abs_tol.
    """
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    upper = quad.upper if quad.upper is not None else _tail_cutoff(quad.abs_tol)
    # one set-up for every sweep; it refuses the orders first, before the partition scales with them
    k_at = _k_sweeps((nu, nup), lambda switch: min(switch, upper))
    if upper <= xi:
        raise DomainError("upper cutoff must exceed xi")
    if xi < _X_ZERO < upper:  # K is exactly 0 from x = 746 on, and so is the tail bound
        upper = _X_ZERO

    def product(u: np.ndarray) -> np.ndarray:
        k = k_at(np.exp(u))
        return k[:, 0] * k[:, 1]

    edges = _quadrature_edges(xi, upper, nu + nup)
    (total,), (err,), (tol,) = _gauss_kronrod(product, edges, 0.5 * quad.abs_tol, quad.rel_tol)
    err += (math.pi / (4.0 * upper * upper)) * math.exp(-2.0 * upper)
    if err > 10.0 * max(quad.abs_tol + quad.rel_tol * abs(total), tol):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3g} exceeds requested tolerance",
            estimate=KernelValue(value=total, method="quadrature", abs_err_estimate=err),
        )
    return KernelValue(value=total, method="quadrature", abs_err_estimate=err)


def _asym_prefactor(nu: float, nup: float | np.ndarray) -> float | np.ndarray:
    """pi / (2 sqrt(nu nu' sinh(pi nu) sinh(pi nu'))), elementwise over an array nu'."""
    try:
        sinh_nu = math.sinh(math.pi * nu)
    except OverflowError:  # orders beyond about 226; refused below like an overflowing product
        sinh_nu = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        den = 2.0 * np.sqrt(nu * nup * sinh_nu * np.sinh(math.pi * nup))
    # nu nu' sinh(pi nu) sinh(pi nu') underflows for tiny orders and overflows for huge ones
    if not ((den > 0.0) & (den < math.inf)).all():
        raise DomainError(
            f"sinc-form prefactor not representable at nu = {nu:g}, nu' = {np.min(nup):g}"
        )
    return math.pi / den


def _check_asymptotic(pair: PairSpec) -> None:
    if pair.xi > 0.1:
        raise RangeError("asymptotic kernel restricted to xi <= 0.1")
    if abs(pair.nu - pair.nu_prime) < _DIAG_GUARD:
        raise NearDiagonalError("diagonal handled by diagonal_limit")


def kernel_asymptotic(pair: PairSpec) -> KernelValue:
    """Finite-cutoff sinc-kernel form valid in the small-xi regime.

    prefactor * [ sin(-(nu-nu') ln(xi/2) + argG(nu) - argG(nu')) / (nu-nu')
                + sin(-(nu+nu') ln(xi/2) + argG(nu) + argG(nu')) / (nu+nu') ]
    """
    _check_asymptotic(pair)
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    g1, g2, pref = arg_gamma_imag(nu), arg_gamma_imag(nup), _asym_prefactor(nu, nup)
    lg = _log_half(xi)  # x/2 = 0 is refused as on the series path
    term_minus = math.sin(-(nu - nup) * lg + g1 - g2) / (nu - nup)
    term_plus = math.sin(-(nu + nup) * lg + g1 + g2) / (nu + nup)
    # leading corrections inherited from the small-x expansion are O(xi^2)
    err = float(pref) * xi * xi * 10.0
    value = float(pref * (term_minus + term_plus))
    return KernelValue(value=value, method="asymptotic", abs_err_estimate=err)


def kl_weight(nu: float) -> float:
    """Continuum-normalization weight pi^2 / (2 nu sinh(pi nu)).

    Raises DomainError where the weight is not a normal binary64 number:
    below nu ~ 1e-154 it overflows, above nu ~ 225 it underflows.
    """
    if not nu > 0.0:
        raise DomainError("weight defined for nu > 0")
    nu = float(nu)  # a numpy scalar would carry its own precision into the arithmetic
    try:
        w = math.pi * math.pi / (2.0 * nu * math.sinh(math.pi * nu))
    except (OverflowError, ZeroDivisionError):  # sinh overflows, or nu sinh(pi nu) underflows
        w = math.nan
    if not _TINY <= w < math.inf:
        raise DomainError(f"weight pi^2/(2 nu sinh(pi nu)) is not representable at nu = {nu:g}")
    return w


def phase_function(nu: float, eta: float) -> float:
    """Phase perturbation f(eta) = arg Gamma(i nu) - arg Gamma(i (nu - eta)).

    Both phases are continued along the positive imaginary axis (not
    wrapped to the principal branch), so f is continuous along eta with
    f(0) = 0 exactly; principal values alone would break that premise at
    wraps.  arg Gamma(i nu) = arg Gamma(1 + i nu) - pi/2, and the pi/2 cancels.
    """
    if not nu > 0.0:
        raise DomainError("nu must be > 0")
    nu, eta = float(nu), float(eta)
    if not (abs(eta) < nu):
        raise DomainError(f"|eta| = {abs(eta):g} must stay below nu = {nu:g}")
    if eta == 0.0:
        return 0.0
    return _arg_gamma_one_plus_imag(nu) - _arg_gamma_one_plus_imag(nu - eta)


def delta_model(a: float, eta: float, f: Optional[Callable[[float], float]] = None) -> float:
    """Delta-sequence kernel sin[a eta + f(eta)] / (pi eta).

    At eta = 0 returns the removable-singularity value (a + f'(0)) / pi,
    with f'(0) by central difference at step 1e-6; so too where eta, or with
    no f the phase a eta, is subnormal and keeps too few bits.  Raises DomainError
    unless a and eta are finite and the phase a eta + f(eta) and the value
    are finite too.
    """
    if not 0.0 < a < math.inf:
        raise DomainError("delta-sequence parameter a must be > 0 and finite")
    a, eta = float(a), float(eta)
    if not abs(eta) < math.inf:  # nan too
        raise DomainError(f"eta = {eta!r} must be finite")
    if abs(eta) < _TINY or (f is None and abs(a * eta) < _TINY):
        slope = 0.0 if f is None else (f(1.0e-6) - f(-1.0e-6)) / 2.0e-6
        value = (a + slope) / math.pi
    else:
        phase = a * eta if f is None else a * eta + f(eta)
        value = math.sin(phase) / (math.pi * eta) if abs(phase) < math.inf else math.nan
    if not abs(value) < math.inf:
        raise DomainError(f"sin(a eta + f(eta)) / (pi eta) is not finite at a = {a:g}, eta = {eta:g}")
    return value


def diagonal_limit(nu: float, xi: float) -> float:
    """lim_{nu' -> nu} of the boundary-term kernel, i.e. int_xi^inf K_{i nu}^2 dx/x.

    L'Hopital's rule gives (K d(xi K')/dnu - xi K' dK/dnu) / (2 nu), all at xi, from one
    series call.  Within 1e-13 relative of 40-digit mpmath, or 4 eps kl_weight(nu) where
    that is larger: parts of size kl_weight(nu) ln(2/xi) / pi cancel to the value, far
    smaller at small nu or near xi = 2.  For xi <= 0.1: max(1e-13, 2 eps / nu^2) relative.
    """
    if not nu > _DIAG_NU_MIN:
        raise DomainError(f"nu must be > {_DIAG_NU_MIN:g}, where the closed form is precise")
    if not (0.0 < xi <= 2.0):
        raise DomainError("xi must lie in (0, 2]")
    return float(_diagonal(nu, np.array([xi]))[0][0])


def _diagonal(nu: float, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """diagonal_limit at each cutoff of the array xi, with K_{i nu} and xi K'_{i nu}: one call."""
    k, dk, k_nu, dk_nu = _k_dk_series(nu, xi, dnu=True)
    return (k * dk_nu - dk * k_nu) / (2.0 * nu), k, dk


def _smeared_kernel(nu: float, xis: Sequence[float], phi: TestFunctionSpec) -> list[float]:
    """int kernel(nu, nu', xi) phi(nu') dnu' at each cutoff xi in xis, with the
    near-diagonal window replaced by the diagonal limit.

    One adaptive G7K15 over nu' for all cutoffs at once (_gauss_kronrod with
    one component per cutoff).  Each sweep evaluates K and xi K' at every
    cutoff for all its nodes in one series (bessel_im._k_dk_series), so the
    order phases arg Gamma(1 + i nu') are paid once per node, not once per
    cutoff.  The first sweep has about one panel per half-period of the
    kernel on each side of nu at the smallest cutoff, where the kernel
    oscillates fastest.  K and xi K' at nu come from one series call for all
    cutoffs, the call with the nu-derivatives of the diagonal limit when nu
    lies within _DIAG_WINDOW of the support: only then can a node lie within
    the window, and every such node takes the diagonal limit.  Returns one
    Python float per cutoff.
    """
    lo, hi = phi.support()
    lo = max(lo, 1.0e-2)
    if hi <= lo:
        raise DomainError("test function support does not intersect nu' > 0")
    xi = np.array(xis, dtype=float)[:, None]  # one row per cutoff, one column per node
    if lo - _DIAG_WINDOW < nu < hi + _DIAG_WINDOW:
        diag, k1, d1 = _diagonal(nu, xi)
    else:  # no node can lie within the window, so the integrand never reads diag
        k1, d1 = _k_dk_series(nu, xi)

    def integrand(nup: np.ndarray) -> np.ndarray:
        k2, d2 = _k_dk_series(nup, xi)
        far = np.abs(nup - nu) >= _DIAG_WINDOW
        if far.all():  # as nodes almost always are
            return _wronskian_term(nu, nup, k1, d1, k2, d2) * phi(nup)
        out = np.full(k2.shape, diag)
        out[:, far] = _wronskian_term(nu, nup[far], k1, d1, k2[:, far], d2[:, far])
        return out * phi(nup)

    _check_order(hi)  # nodes beyond NU_MAX are refused; refuse before laying their panels
    cuts = [lo, nu, hi] if lo < nu < hi else [lo, hi]
    edges = _panel_edges(cuts, -math.log(0.5 * min(xis)))  # the kernel oscillates at ln(2/xi)
    return _gauss_kronrod(integrand, edges, 1e-10, 1e-9)[0]


def _reflected_bound(nu: float, xi: float, phi: TestFunctionSpec) -> float:
    """|second (nu + nu') term of the sinc form integrated against phi|, by adaptive G7K15.

    The prefactor grows like 1 / sqrt(nu' sinh(pi nu')) ~ 1/nu' toward
    nu' = 0, where the support is cut at lo >= 0.01, so the first partition
    is graded toward 0: cuts at lo, 2 lo, 4 lo, ... below hi, so that no
    panel is wider than its left end's distance from 0, then equal panels
    inside each interval, none wider than the half-period pi / ln(2/xi) of
    the sine or than phi's width, the scale on which phi varies.
    """
    lo, hi = phi.support()
    lo = max(lo, 1.0e-2)
    cuts = [lo]
    while 2.0 * cuts[-1] < hi:
        cuts.append(2.0 * cuts[-1])
    lg = math.log(0.5 * xi)
    g1 = arg_gamma_imag(nu)

    def integrand(nup: np.ndarray) -> np.ndarray:
        # sin is 2 pi periodic, so the continuous arg Gamma(i nu') serves for the principal one
        s = np.sin(-(nu + nup) * lg + g1 + (_arg_gamma_one_plus_imag(nup) - 0.5 * math.pi))
        return _asym_prefactor(nu, nup) * s / (nu + nup) * phi(nup)

    edges = _panel_edges([*cuts, hi], max(-lg, math.pi / phi.width))
    value = _gauss_kronrod(integrand, edges, 1e-12, 1e-10)[0][0]
    return abs(value)


def weak_limit_test(
    nu: float,
    xi_sequence: Sequence[float],
    phi: TestFunctionSpec,
) -> WeakLimitReport:
    """Smeared weak-limit convergence study toward the continuum weight.

    For each cutoff xi computes S(xi) = int kernel_boundary(nu, nu', xi)
    phi(nu') dnu', compares against (pi^2/(2 nu sinh pi nu)) phi(nu), and
    bounds the reflected (nu + nu') contribution at the smallest cutoff.
    All S(xi) come from one quadrature over nu' (_smeared_kernel); the
    reflected bound is a quadrature of its own.
    """
    if not nu > 0.0:
        raise DomainError("nu must be > 0")
    nu = float(nu)
    xs = [float(x) for x in xi_sequence]
    if not xs:
        raise DomainError("xi sequence must be nonempty")
    if any(not (0.0 < x <= 0.1) for x in xs):
        raise DomainError("each xi must lie in (0, 0.1]")
    if any(later >= earlier for earlier, later in zip(xs, xs[1:])):
        raise DomainError("xi sequence must be strictly decreasing")
    frac = phi.mass_fraction_outside_positive_axis()
    if frac > 1.0e-6:
        raise DomainError(
            f"test function has mass fraction {frac:.3g} outside nu' > 0"
        )
    target = kl_weight(nu) * phi(nu)
    if target == 0.0:
        raise DomainError(f"test function vanishes at nu = {nu:g}; the weak-limit target is 0")
    smeared = _smeared_kernel(nu, xs, phi)
    errors = [abs(s - target) for s in smeared]
    reflected = _reflected_bound(nu, min(xs), phi)
    return WeakLimitReport(
        nu=nu,
        xi_sequence=tuple(xs),
        a_sequence=tuple(-math.log(0.5 * x) for x in xs),
        smeared_values=tuple(smeared),
        target=target,
        errors=tuple(errors),
        reflected_term_bound=reflected,
    )


def asymptotic_envelope(
    nu: float,
    nu_prime: float,
    xi: float,
    n_samples: int = 48,
) -> float:
    """Phase-averaged envelope of |kernel_asymptotic - kernel_boundary| at xi.

    The discrepancy is an xi^2-scaled oscillation in ln(xi) at the beat
    frequencies |nu - nu'| and nu + nu'; _octave_envelope fits it over one
    octave around xi, so successive halvings of xi shrink it by the clean
    factor 4 instead of an arbitrary sine ratio.
    """
    pair = PairSpec(nu, nu_prime, xi)  # orders and cutoff are valid before log(xi) is taken
    nu, nu_prime, xi = pair.nu, pair.nu_prime, pair.xi  # as Python floats

    def discrepancy(xs: np.ndarray) -> np.ndarray:
        # The refusals keep the order in which a sample-by-sample evaluation met
        # them: the first sample, the sinc prefactor, the orders and x/2 = 0 (in
        # the series), then xi <= 0.1 for the largest sample (they increase).
        _check_asymptotic(PairSpec(nu, nu_prime, float(xs[0])))
        _asym_prefactor(nu, nu_prime)
        # The sinc form is the boundary term of the leading series terms K0, x K0' alone,
        # so sinc - boundary is the part of the Wronskian with a remainder dK or x dK'
        # in it: O(xi^2), summed with no O(1) part to cancel.
        (k01, k02), (xk01, xk02), (dk1, dk2), (xdk1, xdk2) = _k_dk_series(
            np.array([[nu], [nu_prime]]), xs, split=True
        )
        _check_asymptotic(PairSpec(nu, nu_prime, float(xs[-1])))
        cross = k01 * xdk2 + dk1 * (xk02 + xdk2) - k02 * xdk1 - dk2 * (xk01 + xdk1)
        return cross / (nu * nu - nu_prime * nu_prime)

    return _octave_envelope(xi, n_samples, (abs(nu - nu_prime), nu + nu_prime), discrepancy)
