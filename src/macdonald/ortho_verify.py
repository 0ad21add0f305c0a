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
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .bessel_im import _EPS, _k_and_dk, _k_dk_series, _k_values
from .errors import ConvergenceError, DomainError, NearDiagonalError, RangeError
from .gamma_core import _TINY, _arg_gamma_imag_continuous, arg_gamma_imag

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


def __getattr__(name: str):
    """`integrate` is scipy.integrate, imported on first access (PEP 562).

    Nothing in the package uses it: perfbench/tracer.py rebinds
    `ortho_verify.integrate.quad`, and this keeps scipy off the import path
    of everything else.  The benchmark change of ROADMAP item 7 deletes it.
    """
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    def __call__(self, v: float | np.ndarray) -> float | np.ndarray:
        """phi(v) for a float v (a float), or elementwise over an array of v."""
        u = (np.asarray(v, dtype=float) - self.center) / self.width
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


def _check_off_diagonal(nu: float, nup: float) -> None:
    if abs(nu - nup) < _DIAG_GUARD:
        raise NearDiagonalError(
            f"|nu - nu'| = {abs(nu - nup):.3g} < {_DIAG_GUARD:g}; use diagonal_limit"
        )


def _wronskian_term(nu, nup, xi, k1, d1, k2, d2):
    """-xi (K_{i nu} K'_{i nu'} - K_{i nu'} K'_{i nu}) / (nu^2 - nu'^2) from the values at xi.

    Elementwise over arrays of nu', xi and the K values.
    """
    return -xi * (k1 * d2 - k2 * d1) / (nu * nu - nup * nup)


def _boundary(nu: float, nup: float, xi: float, k1: float, d1: float) -> tuple[float, float]:
    """(value, error) of the boundary term, given K_{i nu}(xi) = k1 and K'_{i nu}(xi) = d1."""
    _check_off_diagonal(nu, nup)
    k2, d2 = _k_and_dk(nup, xi)
    value = _wronskian_term(nu, nup, xi, k1, d1, k2, d2)
    den = nu * nu - nup * nup
    # four evaluations at ~1e-12 relative; the division can amplify
    err = 1e-11 * (abs(xi * k1 * d2) + abs(xi * k2 * d1)) / abs(den)
    return value, err


def kernel_boundary(pair: PairSpec) -> KernelValue:
    """Truncated integral via the Wronskian boundary term.

    value = -xi [K_{i nu}(xi) K'_{i nu'}(xi) - K_{i nu'}(xi) K'_{i nu}(xi)]
            / (nu^2 - nu'^2)
    """
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    _check_off_diagonal(nu, nup)  # refuse before any K is evaluated
    value, err = _boundary(nu, nup, xi, *_k_and_dk(nu, xi))
    return KernelValue(value=value, method="boundary-term", abs_err_estimate=err)


def _tail_cutoff(abs_tol: float) -> float:
    """Smallest U with (pi/(4 U^2)) e^{-2U} below abs_tol (large-x decay bound)."""
    u = 5.0
    while (math.pi / (4.0 * u * u)) * math.exp(-2.0 * u) >= abs_tol and u < 400.0:
        u += 0.5
    return u


# Gauss-Kronrod G7K15 on [-1, 1], QUADPACK's qk15 (Piessens et al., 1983):
# Kronrod nodes from -1 to the centre; the Gauss nodes are every second one.
_XK = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_GK_NODES = np.concatenate([_XK, -_XK[-2::-1]])
_GK_WEIGHTS = np.stack([np.concatenate([w, w[-2::-1]]) for w in (_WK, _WG)], axis=1)  # K15 | G7


def _panel_edges(cuts: Sequence[float], omega: float, limit: int) -> np.ndarray:
    """Breakpoints that split each interval between successive cuts into equal panels.

    About one panel per half-period pi/omega of an oscillation at angular
    frequency omega, at least one per interval, and at most `limit` in
    all, shared in proportion.
    """
    cuts = np.asarray(cuts, dtype=float)
    n = np.maximum(1, np.ceil(omega * np.diff(cuts) / math.pi)).astype(int)
    if n.sum() > limit:
        n = np.maximum(1, limit * n // n.sum())
    parts = [np.linspace(a, b, m + 1)[:-1] for a, b, m in zip(cuts[:-1], cuts[1:], n)]
    return np.concatenate(parts + [cuts[-1:]])


def _gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> tuple[float, float]:
    """Adaptive G7K15 of f over (edges[0], edges[-1]), starting from the panels between the edges.

    Each sweep evaluates f once, at the 15 nodes of every pending panel.
    A panel's error is max(|K15 - G7|, 50 eps r sum w|f|), the second term
    QUADPACK's roundoff floor.  The sweeps stop once the summed error is
    within max(epsabs, epsrel |value|); until then each panel within its
    share of that tolerance (by width) is accepted and the rest are
    bisected, the worst first, as long as at most `limit` panels result.
    Returns (value, summed error estimate) as Python floats.
    """
    lo, hi = edges[:-1], edges[1:]
    length = edges[-1] - edges[0]
    done_value = done_err = 0.0  # panels accepted, or left as they are at the limit
    done = 0
    while True:
        centre, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f((centre[:, None] + r[:, None] * _GK_NODES).ravel()).reshape(-1, _GK_NODES.size)
        kg = r[:, None] * (fx @ _GK_WEIGHTS)
        floor = 50.0 * _EPS * r * (np.abs(fx) @ _GK_WEIGHTS[:, 0])
        err = np.maximum(np.abs(kg[:, 0] - kg[:, 1]), floor)
        value = done_value + float(kg[:, 0].sum())
        total_err = done_err + float(err.sum())
        tol = max(epsabs, epsrel * abs(value))
        if total_err <= tol:
            return value, total_err
        ok = err <= tol * (hi - lo) / length
        worst = np.flatnonzero(~ok)[np.argsort(-err[~ok], kind="stable")]
        room = max(limit - done - int(ok.sum()) - worst.size, 0)  # bisections that fit
        keep = ok.copy()
        keep[worst[room:]] = True
        done += int(keep.sum())
        done_value += float(kg[keep, 0].sum())
        done_err += float(err[keep].sum())
        split = worst[:room]
        if not split.size:
            return done_value, done_err
        lo = np.concatenate([lo[split], centre[split]])
        hi = np.concatenate([centre[split], hi[split]])


def kernel_quadrature(pair: PairSpec, quad: QuadratureSpec = QuadratureSpec()) -> KernelValue:
    """Adaptive quadrature of int_xi^U K_{i nu} K_{i nu'} / x dx plus tail bound.

    On (xi, min(2, U)) the substitution u = ln x turns the logarithmic
    oscillation of the integrand into a trigonometric-regular one.  Both
    parts are vectorized Gauss-Kronrod sweeps over array K
    (bessel_im._k_values), starting from about one panel per half-period
    of the product's fastest oscillation, (nu + nu') / pi per unit length.
    """
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    upper = quad.upper if quad.upper is not None else _tail_cutoff(quad.abs_tol)
    if upper <= xi:
        raise DomainError("upper cutoff must exceed xi")

    def product(x: np.ndarray) -> np.ndarray:
        k = _k_values((nu, nup), x)
        return k[:, 0] * k[:, 1]

    def sweep(f, a: float, b: float, limit: int) -> tuple[float, float]:
        edges = _panel_edges([a, b], nu + nup, limit)
        return _gauss_kronrod(f, edges, 0.5 * quad.abs_tol, quad.rel_tol, limit)

    total = 0.0
    err = 0.0
    mid = min(2.0, upper)
    if xi < mid:
        v1, e1 = sweep(lambda u: product(np.exp(u)), math.log(xi), math.log(mid), 400)
        total += v1
        err += e1
    else:
        mid = xi
    if upper > mid:
        v2, e2 = sweep(lambda x: product(x) / x, mid, upper, 200)
        total += v2
        err += e2
    tail = (math.pi / (4.0 * upper * upper)) * math.exp(-2.0 * upper)
    err += tail
    if err > 10.0 * (quad.abs_tol + quad.rel_tol * abs(total)):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3g} exceeds requested tolerance",
            estimate=KernelValue(value=total, method="quadrature", abs_err_estimate=err),
        )
    return KernelValue(value=total, method="quadrature", abs_err_estimate=err)


def _asym_prefactor(nu: float, nup: float | np.ndarray) -> float | np.ndarray:
    """pi / (2 sqrt(nu nu' sinh(pi nu) sinh(pi nu'))), elementwise over an array nu'."""
    den = 2.0 * np.sqrt(nu * nup * math.sinh(math.pi * nu) * np.sinh(math.pi * nup))
    if np.any(den == 0.0):  # nu nu' sinh(pi nu) sinh(pi nu') underflows for tiny orders
        raise DomainError(
            f"sinc-form prefactor not representable at nu = {nu:g}, nu' = {np.min(nup):g}"
        )
    return math.pi / den


def _check_asymptotic(pair: PairSpec) -> None:
    if pair.xi > 0.1:
        raise RangeError("asymptotic kernel restricted to xi <= 0.1")
    if abs(pair.nu - pair.nu_prime) < _DIAG_GUARD:
        raise NearDiagonalError("diagonal handled by diagonal_limit")


def _sinc_constants(nu: float, nup: float) -> tuple[float, float, float]:
    """arg Gamma(i nu), arg Gamma(i nu') and the sinc prefactor: fixed per order pair."""
    return arg_gamma_imag(nu), arg_gamma_imag(nup), float(_asym_prefactor(nu, nup))


def _sinc_form(
    nu: float, nup: float, xi: float | np.ndarray, g1: float, g2: float, pref: float
) -> float | np.ndarray:
    """The sinc form at cutoff xi, elementwise over an array xi."""
    lg = np.log(0.5 * xi)
    term_minus = np.sin(-(nu - nup) * lg + g1 - g2) / (nu - nup)
    term_plus = np.sin(-(nu + nup) * lg + g1 + g2) / (nu + nup)
    return pref * (term_minus + term_plus)


def kernel_asymptotic(pair: PairSpec) -> KernelValue:
    """Finite-cutoff sinc-kernel form valid in the small-xi regime.

    prefactor * [ sin(-(nu-nu') ln(xi/2) + argG(nu) - argG(nu')) / (nu-nu')
                + sin(-(nu+nu') ln(xi/2) + argG(nu) + argG(nu')) / (nu+nu') ]
    """
    _check_asymptotic(pair)
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    g1, g2, pref = _sinc_constants(nu, nup)
    value = float(_sinc_form(nu, nup, xi, g1, g2, pref))
    # leading corrections inherited from the small-x expansion are O(xi^2)
    err = pref * xi * xi * 10.0
    return KernelValue(value=value, method="asymptotic", abs_err_estimate=err)


def kl_weight(nu: float) -> float:
    """Continuum-normalization weight pi^2 / (2 nu sinh(pi nu)).

    Raises DomainError where the weight is not a normal binary64 number:
    below nu ~ 1e-154 it overflows, above nu ~ 225 it underflows.
    """
    if not nu > 0.0:
        raise DomainError("weight defined for nu > 0")
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
    wraps.
    """
    if not nu > 0.0:
        raise DomainError("nu must be > 0")
    if not (abs(eta) < nu):
        raise DomainError(f"|eta| = {abs(eta):g} must stay below nu = {nu:g}")
    if eta == 0.0:
        return 0.0
    return _arg_gamma_imag_continuous(nu) - _arg_gamma_imag_continuous(nu - eta)


def delta_model(a: float, eta: float, f: Optional[Callable[[float], float]] = None) -> float:
    """Delta-sequence kernel sin[a eta + f(eta)] / (pi eta).

    At eta = 0 returns the removable-singularity value (a + f'(0)) / pi,
    with f'(0) by central difference at step 1e-6.
    """
    if not a > 0.0:
        raise DomainError("delta-sequence parameter a must be > 0")
    if f is None:
        if eta == 0.0:
            return a / math.pi
        return math.sin(a * eta) / (math.pi * eta)
    if eta == 0.0:
        h = 1.0e-6
        fp0 = (f(h) - f(-h)) / (2.0 * h)
        return (a + fp0) / math.pi
    return math.sin(a * eta + f(eta)) / (math.pi * eta)


def diagonal_limit(nu: float, xi: float, h: float = 1.0e-4) -> float:
    """lim_{nu' -> nu} of the boundary-term kernel, i.e. int_xi^inf K^2/x dx.

    Symmetric evaluation in nu' at steps h and h/2 with Richardson
    extrapolation; the kernel is even in (nu' - nu) to leading order, so
    the even average converges at O(h^2) and the extrapolant at O(h^4).
    """
    if not nu > 0.0:
        raise DomainError("nu must be > 0")
    if not (0.0 < xi <= 2.0):
        raise DomainError("xi must lie in (0, 2]")

    # kernel_boundary's checks on the first pair come before any K is evaluated
    _check_off_diagonal(nu, PairSpec(nu, nu - h, xi).nu_prime)
    k1, d1 = _k_and_dk(nu, xi)

    def kernel(nup: float) -> float:
        PairSpec(nu, nup, xi)  # nu' > 0, as kernel_boundary requires
        return _boundary(nu, nup, xi, k1, d1)[0]

    def even_avg(step: float) -> float:
        return 0.5 * (kernel(nu - step) + kernel(nu + step))

    l1 = even_avg(h)
    l2 = even_avg(0.5 * h)
    rich = (4.0 * l2 - l1) / 3.0
    if abs(rich - l2) > 1.0e-6 * max(abs(rich), 1.0e-300):
        raise ConvergenceError(
            f"diagonal extrapolation disagreement {abs(rich - l2):.3g}",
            estimate=rich,
        )
    return rich


def _smeared_kernel(nu: float, xi: float, phi: TestFunctionSpec) -> float:
    """int kernel(nu, nu', xi) phi(nu') dnu' with the near-diagonal window
    replaced by the diagonal limit.

    One adaptive G7K15 over nu', each sweep evaluating K and K' at xi for
    all its nodes in one series (bessel_im._k_dk_series); the first sweep
    has about one panel per half-period of the kernel on each side of nu.
    """
    lo, hi = phi.support()
    lo = max(lo, 1.0e-2)
    if hi <= lo:
        raise DomainError("test function support does not intersect nu' > 0")
    diag = diagonal_limit(nu, xi) if lo < nu < hi else None
    k1, d1 = _k_and_dk(nu, xi)

    def integrand(nup: np.ndarray) -> np.ndarray:
        k2, d2 = _k_dk_series(nup, xi)
        gap = np.abs(nup - nu)
        if diag is None:
            _check_off_diagonal(nu, float(nup[np.argmin(gap)]))
            return _wronskian_term(nu, nup, xi, k1, d1, k2, d2) * phi(nup)
        far = gap >= _DIAG_WINDOW
        out = np.full(nup.shape, diag)
        out[far] = _wronskian_term(nu, nup[far], xi, k1, d1, k2[far], d2[far])
        return out * phi(nup)

    cuts = [lo, nu, hi] if diag is not None else [lo, hi]
    edges = _panel_edges(cuts, -math.log(0.5 * xi), 400)  # the kernel oscillates at ln(2/xi)
    value, _err = _gauss_kronrod(integrand, edges, 1e-10, 1e-9, 400)
    return value


def _reflected_bound(nu: float, xi: float, phi: TestFunctionSpec) -> float:
    """|second (nu + nu') term of the sinc form integrated against phi|, by adaptive G7K15."""
    lo, hi = phi.support()
    lo = max(lo, 1.0e-2)
    lg = math.log(0.5 * xi)
    g1 = arg_gamma_imag(nu)

    def integrand(nup: np.ndarray) -> np.ndarray:
        # sin is 2 pi periodic, so the continuous arg Gamma(i nu') serves for the principal one
        s = np.sin(-(nu + nup) * lg + g1 + _arg_gamma_imag_continuous(nup))
        return _asym_prefactor(nu, nup) * s / (nu + nup) * phi(nup)

    value, _err = _gauss_kronrod(integrand, _panel_edges([lo, hi], -lg, 400), 1e-12, 1e-10, 400)
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
    """
    if not nu > 0.0:
        raise DomainError("nu must be > 0")
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
    smeared = [_smeared_kernel(nu, x, phi) for x in xs]
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

    The discrepancy is a fixed bounded oscillation in ln(xi) (beat
    frequencies |nu - nu'| and nu + nu') scaled by xi^2.  Sampling one
    octave around xi and projecting onto the quadrature components at
    those two frequencies yields an amplitude insensitive to where the
    phase happens to sit, so successive halvings of xi shrink it by the
    clean factor 4 instead of an arbitrary sine ratio.
    """
    PairSpec(nu, nu_prime, xi)  # orders and cutoff are valid before log(xi) is taken
    u = np.linspace(
        math.log(xi) - 0.5 * math.log(2.0),
        math.log(xi) + 0.5 * math.log(2.0),
        n_samples,
    )
    xs = np.exp(u)
    # K and K' of both orders at all samples come from one series.  The
    # refusals keep the order in which a sample-by-sample evaluation met
    # them: the first sample, the sinc constants, the orders (in
    # _k_dk_series), then xi <= 0.1 for the largest sample (they increase).
    _check_asymptotic(PairSpec(nu, nu_prime, float(xs[0])))
    sinc = _sinc_constants(nu, nu_prime)
    (k1, k2), (d1, d2) = _k_dk_series(np.array([[nu], [nu_prime]]), xs)
    _check_asymptotic(PairSpec(nu, nu_prime, float(xs[-1])))
    boundary = _wronskian_term(nu, nu_prime, xs, k1, d1, k2, d2)
    # scaled by (s/xi)^2, within [1/2, 2], not by s^2: the fitted amplitude is then the
    # envelope itself, and nothing overflows at tiny xi
    y = (_sinc_form(nu, nu_prime, xs, *sinc) - boundary) / (xs / xi) ** 2
    cols = []
    for f in (abs(nu - nu_prime), nu + nu_prime):
        cols.append(np.cos(f * u))
        cols.append(np.sin(f * u))
    coeff, *_ = np.linalg.lstsq(np.vstack(cols).T, y, rcond=None)
    return math.sqrt(float(np.dot(coeff, coeff)))
