"""Extended-precision reference implementations (mpmath), independent of
the package's own evaluation paths, plus values frozen from them.

The frozen constants below were produced by the functions in this module
at 40-200 digits; the slow recomputation is only spot-checked in the
test suite.
"""

import math

import mpmath as mp
import numpy as np

# ---------------------------------------------------------------------------
# reference implementations


def k_integral_ref(nu, x, dps=40):
    """K_{i nu}(x) = int_0^inf e^{-x cosh t} cos(nu t) dt at high precision."""
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        T = mp.acosh(mp.log(mp.mpf(10)) * (dps + 10) / x + 1)
        f = lambda t: mp.e ** (-x * mp.cosh(t)) * mp.cos(nu * t)
        return mp.quad(f, [0, T / 4, T / 2, T], maxdegree=12)


def k_besselk_ref(nu, x, dps=30):
    """K_{i nu}(x) from mpmath's besselk at `dps` digits, as a float."""
    with mp.workdps(dps):
        return float(mp.besselk(1j * mp.mpf(nu), mp.mpf(x)).real)


def i_series_ref(nu, x, terms=60, dps=200):
    """I_{i nu}(x) by direct high-precision summation of the power series."""
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        tot = mp.mpc(0)
        for k in range(terms):
            tot += (x / 2) ** (2 * k + 1j * nu) / (mp.factorial(k) * mp.gamma(k + 1 + 1j * nu))
        return mp.mpc(tot)


def k_dk_besselk_ref(nu, x, dps=30):
    """(K_{i nu}(x), K'_{i nu}(x)) as mpf; K' = -(K_{i nu - 1} + K_{i nu + 1}) / 2, DLMF 10.29.1."""
    with mp.workdps(dps):
        z, x = 1j * mp.mpf(nu), mp.mpf(x)
        return mp.besselk(z, x).real, (-(mp.besselk(z - 1, x) + mp.besselk(z + 1, x)) / 2).real


def diagonal_ref(nu, xi, dps=40):
    """int_xi^inf K_{i nu}(x)^2 dx/x = xi (K dK'/dnu - K' dK/dnu) / (2 nu) at `dps` digits.

    The limit nu' -> nu of the Wronskian boundary term, with mpmath's besselk
    and its numerical nu-derivative; it agrees with mpmath's quadrature of
    K^2/x to about 1e-31 relative at (nu, xi) = (1, 0.5), (0.1, 2), (2, 1).
    """
    with mp.workdps(dps):
        nu, x = mp.mpf(nu), mp.mpf(xi)
        k = lambda n: mp.besselk(1j * n, x).real
        dk = lambda n: (-(mp.besselk(1j * n - 1, x) + mp.besselk(1j * n + 1, x)) / 2).real
        return x * (k(nu) * mp.diff(dk, nu) - dk(nu) * mp.diff(k, nu)) / (2 * nu)


def boundary_ref(nu, nup, xi, dps=60):
    """The Wronskian boundary term -xi (K_1 K'_2 - K_2 K'_1) / (nu^2 - nu'^2), from k_dk_besselk_ref."""
    with mp.workdps(dps):
        (k1, d1), (k2, d2) = k_dk_besselk_ref(nu, xi, dps), k_dk_besselk_ref(nup, xi, dps)
        a, b = mp.mpf(nu), mp.mpf(nup)
        return -mp.mpf(xi) * (k1 * d2 - k2 * d1) / (a * a - b * b)


def envelope_ref(nu, nup, xi, n_samples=48, dps=30):
    """asymptotic_envelope(nu, nup, xi) with every step after the sampling at `dps` digits.

    The samples are the binary64 ones (linspace in u = ln x, x = exp(u));
    the boundary term comes from k_dk_besselk_ref, the sinc form from
    mpmath's arg Gamma, and the least-squares fit is mpmath's QR solve.
    """
    half_octave = 0.5 * math.log(2.0)
    u = np.linspace(math.log(xi) - half_octave, math.log(xi) + half_octave, n_samples)
    with mp.workdps(dps):
        a, b = mp.mpf(nu), mp.mpf(nup)
        g1, g2 = mp.arg(mp.gamma(1j * a)), mp.arg(mp.gamma(1j * b))
        pref = mp.pi / (2 * mp.sqrt(a * b * mp.sinh(mp.pi * a) * mp.sinh(mp.pi * b)))
        rows, ys = [], []
        for uj, xj in zip(u.tolist(), np.exp(u).tolist()):
            uj, s = mp.mpf(uj), mp.mpf(xj)
            (k1, d1), (k2, d2) = k_dk_besselk_ref(nu, s, dps), k_dk_besselk_ref(nup, s, dps)
            boundary = -s * (k1 * d2 - k2 * d1) / (a * a - b * b)
            lg = mp.log(s / 2)
            sinc = pref * (mp.sin(-(a - b) * lg + g1 - g2) / (a - b)
                           + mp.sin(-(a + b) * lg + g1 + g2) / (a + b))
            ys.append((sinc - boundary) / mp.exp(2 * uj))
            rows.append([f(w * uj) for w in (abs(a - b), a + b) for f in (mp.cos, mp.sin)])
        coeff, _residual = mp.qr_solve(mp.matrix(rows), mp.matrix(ys))
        return float(mp.mpf(xi) ** 2 * mp.sqrt(sum(c * c for c in coeff)))


def log_gamma_ref(z, dps=40):
    with mp.workdps(dps):
        return mp.loggamma(mp.mpc(z))


# ---------------------------------------------------------------------------
# frozen values

# 1/Gamma(1+i)
RECIP_GAMMA_1_PLUS_I = 1.8307443965905246942 + 0.56960764103668180603j

# I_{i*1}(1), 200 digits / 60 terms
I_I1_AT_1 = 1.9007996758194253617 - 1.0639600135544408219j

# K_{i*1}(1) via the integral representation at 50 digits
K_I1_AT_1 = 0.28942803702599212763

ARG_GAMMA_I = -1.8724366472624298171  # arg Gamma(i)
ARG_GAMMA_HALF_I = -1.8148546257003243819  # arg Gamma(0.5 i)

# K_{i nu}(x) over the cross-validation grid, from k_integral_ref
# (each value agrees with an independent high-precision evaluation of
# the function to < 1e-25 relative).
K_GRID = {
    (0.1, 0.0001): 7.9686582493809925086,
    (0.1, 0.01): 4.514192445199013275,
    (0.1, 0.1): 2.3875716057946879887,
    (0.1, 1.0): 0.41948782987064154126,
    (0.1, 2.0): 0.11365798727092192862,
    (0.1, 5.0): 0.0036877163398681320144,
    (0.1, 20.0): 5.7398367555898658851e-10,
    (0.5, 0.0001): -1.6523369544198816213,
    (0.5, 0.01): 1.1098860905451278987,
    (0.5, 0.1): 1.5736894873785720641,
    (0.5, 1.0): 0.38404301690509269863,
    (0.5, 2.0): 0.10812833240911413378,
    (0.5, 5.0): 0.0036074271313261712002,
    (0.5, 20.0): 5.7063121527622247232e-10,
    (1.0, 0.0001): -0.091871123933089008345,
    (1.0, 0.01): -0.50063371682748455125,
    (1.0, 0.1): 0.2253818853015677958,
    (1.0, 1.0): 0.28942803702599212763,
    (1.0, 2.0): 0.092385459890391181537,
    (1.0, 5.0): 0.0033670999885610447448,
    (1.0, 20.0): 5.6027857553464753084e-10,
    (2.0, 0.0001): 0.067806775664900326741,
    (2.0, 0.01): -0.073834841938384281678,
    (2.0, 0.1): -0.012290334958861469828,
    (2.0, 1.0): 0.08061699762236597857,
    (2.0, 2.0): 0.047997990856470642072,
    (2.0, 5.0): 0.0025494652779584352942,
    (2.0, 20.0): 5.2068587804595920715e-10,
    (5.0, 0.0001): 0.000032060206232063717626,
    (5.0, 0.01): -0.00038948309112824174459,
    (5.0, 0.1): -0.000023714186988122481422,
    (5.0, 1.0): 0.00038046182799756372805,
    (5.0, 2.0): -0.00034633788080657143473,
    (5.0, 5.0): 0.00031859102518674590251,
    (5.0, 20.0): 3.1100590842180056295e-10,
    (10.0, 0.0001): -3.0657533729311277916e-8,
    (10.0, 0.01): -8.673792898139277502e-8,
    (10.0, 0.1): -2.6280917472636347952e-8,
    (10.0, 1.0): 1.1294550821681802405e-7,
    (10.0, 2.0): 1.1735704221220611526e-7,
    (10.0, 5.0): -1.0825398134796980693e-7,
    (10.0, 20.0): 4.764583127515444526e-11,
}

# asymptotic_envelope's test cases, from envelope_ref at 30 digits
ENVELOPE = {
    (1.0, 1.5, 1e-3): 7.015453896212681e-09,
    (0.6, 2.2, 3e-2): 3.841734243748032e-06,
    (2.0, 1.2, 5e-5): 3.368010102422988e-12,
    (0.5, 0.6, 5e-4): 7.145137521324606e-08,
}

# an envelope-only case, from envelope_ref at 30 digits: kernels of size 1/nu ~ 100
# make the per-sample difference of two O(1) kernels too coarse for it
ENVELOPE_SMALL_ORDERS = {(0.01, 0.02, 1e-3): 8.834264502851563e-04}

# kernel_boundary's estimate test pairs, from boundary_ref at 60 digits (80 digits agree
# within 2e-59 relative): five on the integral path, four on the series path, and three
# at subnormal cutoffs, where K' is beyond the floats and xi K' is not
BOUNDARY = {
    (10.0, 12.0, 20.0): 2.0390714628793139e-23,
    (12.0, 13.0, 40.0): 1.8324581923084636e-40,
    (15.0, 15.5, 18.0): 1.2385858898797856e-24,
    (19.0, 10.0, 22.7): 1.0062099504632916e-27,
    (30.0, 35.0, 33.0): 1.5644931026425879e-47,
    (1.0, 2.0, 0.1): -0.0094276046573472485,
    (0.7, 0.75, 1e-4): 3.9274285299919536,
    (2.3, 1.1, 1.5): 0.0021330717445221881,
    (5.0, 3.0, 3.0): 1.1473129097780285e-6,
    (1.0, 1.5, 1e-310): -0.08911193525325274,
    (0.3, 2.0, 1e-320): -0.028318059605322708,
    (1.0, 2.0, 1e-310): -0.024037091289542352,
}

# diagonal_limit's test grid, from diagonal_ref at 40 digits
DIAGONAL = {
    (0.001, 1e-300): 99898044.98342016,
    (0.001, 1e-100): 4032459.278595679,
    (0.001, 1e-10): 4131.084530317207,
    (0.001, 0.001): 115.89727685094009,
    (0.001, 0.1): 5.086908953561867,
    (0.001, 1.0): 0.050653504400110294,
    (0.001, 2.0): 0.0022934573730068117,
    (0.01, 1e-300): 3216567.822165992,
    (0.01, 1e-100): 1400268.2350971508,
    (0.01, 1e-10): 4086.859409812441,
    (0.01, 0.001): 115.7675738930049,
    (0.01, 0.1): 5.085739590637891,
    (0.01, 1.0): 0.050650450633126086,
    (0.01, 2.0): 0.002293374642458642,
    (0.05, 1e-300): 137663.65277767825,
    (0.05, 1e-100): 47610.70328718126,
    (0.05, 1e-10): 3143.7795035998693,
    (0.05, 0.001): 112.6653803372672,
    (0.05, 0.1): 5.0574698423862925,
    (0.05, 1.0): 0.050576474190166316,
    (0.05, 2.0): 0.0022913699394639087,
    (0.1, 1e-300): 33995.93346899474,
    (0.1, 1e-100): 11118.882855914137,
    (0.1, 1e-10): 1383.9419651137196,
    (0.1, 0.001): 103.47585815014797,
    (0.1, 0.1): 4.970091321348068,
    (0.1, 1.0): 0.05034596842551448,
    (0.1, 2.0): 0.0022851161993448746,
    (0.5, 1e-300): 943.7325337413415,
    (0.5, 1e-100): 316.06517206228995,
    (0.5, 1e-10): 33.22175951508492,
    (0.5, 0.001): 8.92030101234968,
    (0.5, 0.1): 2.826621532839874,
    (0.5, 1.0): 0.04348186663121899,
    (0.5, 2.0): 0.0020935163393066775,
    (1.0, 1e-310): 97.13589780436835,  # dK'/dnu is beyond the floats there
    (1.0, 1e-300): 94.0603945793194,
    (1.0, 1e-100): 31.39221230670554,
    (1.0, 1e-10): 3.219609131238627,
    (1.0, 0.001): 0.9858099008498888,
    (1.0, 0.1): 0.4733594576507673,
    (1.0, 1.0): 0.027365033641389962,
    (1.0, 2.0): 0.0015899742580848767,
    (2.0, 1e-300): 2.029705414203953,
    (2.0, 1e-100): 0.6792548779757509,
    (2.0, 1e-10): 0.07110435313958852,
    (2.0, 0.001): 0.024894020807116328,
    (2.0, 0.1): 0.011115441883657097,
    (2.0, 1.0): 0.0039810278434868306,
    (2.0, 2.0): 0.0005169472412471909,
    (5.0, 1e-300): 6.563628855217282e-05,
    (5.0, 1e-100): 2.203045459817501e-05,
    (5.0, 1e-10): 2.400722302585054e-06,
    (5.0, 0.001): 8.63669146811462e-07,
    (5.0, 0.1): 4.3739676190896364e-07,
    (5.0, 1.0): 2.0886759804805516e-07,
    (5.0, 2.0): 1.3790850300577646e-07,
    (10.0, 1e-300): 4.949779525834985e-12,
    (10.0, 1e-100): 1.6643247185686897e-12,
    (10.0, 1e-10): 1.858879436853343e-13,
    (10.0, 0.001): 7.085349727131444e-14,
    (10.0, 0.1): 3.7961743532973927e-14,
    (10.0, 1.0): 2.1587993607569563e-14,
    (10.0, 2.0): 1.619354780123219e-14,
    (20.0, 1e-300): 5.62658471654202e-26,
    (20.0, 1e-100): 1.8952439255696086e-26,
    (20.0, 1e-10): 2.1650277169175413e-27,
    (20.0, 0.001): 8.568661425816034e-28,
    (20.0, 0.1): 4.851240307586058e-28,
    (20.0, 1.0): 2.9736443390439493e-28,
    (20.0, 2.0): 2.4291558338813416e-28,
    (50.0, 1e-300): 2.639916154309158e-67,
    (50.0, 1e-100): 8.915808273780768e-68,
    (50.0, 1e-10): 1.0487476646461451e-68,
    (50.0, 0.001): 4.372251551324518e-69,
    (50.0, 0.1): 2.6186613291175005e-69,
    (50.0, 1.0): 1.7509962684682088e-69,
    (50.0, 2.0): 1.4872633816031883e-69,
}
