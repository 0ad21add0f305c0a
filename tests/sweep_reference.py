"""The array K as it was evaluated sweep by sweep, before the per-call set-up.

`per_sweep_k_values(nus, x)` is a copy of bessel_im._k_values as it stood
when every call, and so every Gauss-Kronrod sweep of kernel_quadrature,
made each order's series set-up afresh: its c_k counted at the largest
series x of that call, arg Gamma(1 + i nu) and |Gamma(i nu)|, and Horner
steps that allocate a new array each.  `per_sweep_quadrature` is
kernel_quadrature on it.  The tests pin the package to these, bit for bit.
"""

import math

import numpy as np

from macdonald import KernelValue, ConvergenceError, DomainError
from macdonald import ortho_verify
from macdonald.bessel_im import (
    _TINY,
    _check_abscissae,
    _check_order,
    _k_integral_values,
    _log_half,
    _series_run,
    _x_switch,
)
from macdonald.gamma_core import _arg_gamma_one_plus_imag, abs_gamma_imag


def series_count(nu, x):
    """How many c_k the per-sweep series sums for order nu at the abscissae x."""
    half = 0.5 * float(np.max(x))
    return sum(1 for _c in _series_run(nu, half * half))


def per_sweep_series_values(nu, x):
    half = 0.5 * x
    if not half.min() > 0.0:
        _log_half(float(x.min()))
    h2 = half * half
    coeffs = np.array(list(_series_run(nu, float(h2.max()))))
    poly = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly = poly * h2 + c
    phase = nu * np.log(half) - _arg_gamma_one_plus_imag(nu)
    im = np.sin(phase) * poly.real + np.cos(phase) * poly.imag
    return -abs_gamma_imag(nu) * im


def per_sweep_k_values(nus, x):
    orders = [abs(_check_order(float(nu))) for nu in nus]
    x = _check_abscissae(x)
    out = np.empty((x.size, len(orders)))
    switch = [_x_switch(nu) if nu >= _TINY else 0.0 for nu in orders]
    integral = x > min(switch)
    if integral.any():
        top = x[integral].max()
        cols = [j for j, s in enumerate(switch) if s < top]
        every = integral.all()
        k = _k_integral_values([orders[j] for j in cols], x if every else x[integral])
        out[(slice(None), cols) if every else np.ix_(integral, cols)] = k
    for j, nu in enumerate(orders):
        series = x <= switch[j]
        if series.any():
            rows = slice(None) if series.all() else series
            out[rows, j] = per_sweep_series_values(nu, x[rows])
    return out


def per_sweep_quadrature(pair, quad=ortho_verify.QuadratureSpec()):
    nu, nup, xi = pair.nu, pair.nu_prime, pair.xi
    for order in (nu, nup):
        _check_order(order)
    upper = quad.upper if quad.upper is not None else ortho_verify._tail_cutoff(quad.abs_tol)
    if upper <= xi:
        raise DomainError("upper cutoff must exceed xi")

    def product(u):
        k = per_sweep_k_values((nu, nup), np.exp(u))
        return k[:, 0] * k[:, 1]

    edges = ortho_verify._quadrature_edges(xi, upper, nu + nup)
    (total,), (err,), (tol,) = ortho_verify._gauss_kronrod(
        product, edges, 0.5 * quad.abs_tol, quad.rel_tol
    )
    err += (math.pi / (4.0 * upper * upper)) * math.exp(-2.0 * upper)
    if err > 10.0 * max(quad.abs_tol + quad.rel_tol * abs(total), tol):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3g} exceeds requested tolerance",
            estimate=KernelValue(value=total, method="quadrature", abs_err_estimate=err),
        )
    return KernelValue(value=total, method="quadrature", abs_err_estimate=err)
