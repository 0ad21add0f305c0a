"""Extended-precision reference implementations (mpmath), independent of
the package's own evaluation paths, plus values frozen from them.

The frozen constants below were produced by the functions in this module
at 40-200 digits; the slow recomputation is only spot-checked in the
test suite.
"""

import mpmath as mp

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
