"""Seeded inputs, one op and one correctness check per workload.

Inputs are mapped from a randomly shifted Halton sequence: the Halton
points in the unit cube of the input parameters, each shifted by one
seeded uniform vector modulo 1.  Every point is still uniform, so the
inputs have the stated marginals (log-uniform and so on), but every prefix
of the stream, whatever length a run reaches, covers the whole range
evenly.  Op costs here span three decades and a few percent of the inputs
take most of the time, so with independent draws the op mix, and with it
ops_per_s and the tail percentiles, would vary far more between seeds.

The module imports neither macdonald nor mpmath: ops receive the imported
package as an argument, so the worker is the only process that loads it
and the orchestrator can generate the same inputs without timing anything.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

K_TOL = 1.0e-8  # k_points: error allowed, relative to the local amplitude
PAIR_TOL = 1.0e-8  # kernel_pairs: the identity-check default, abs + rel
DELTA_SLACK = 0.1  # weak_limit: the delta-test default --slack
RATIO_BAND = (0.75, 1.25)  # weak_limit: the asym-check default --ratio-band

# ROADMAP open item 1: the integral path (x > X_SWITCH = 2) cannot resolve
# K ~ e^(-pi nu / 2) at high order, and its absolute tail cutoff costs
# accuracy near x = 30.  Failures inside this region are counted in
# `failed` and pass_frac like any other; only failures outside it clear
# `correct`.
KNOWN_DEFECT = "x > 2 and nu >= 10, or 25 <= x <= 40 (integral path, ROADMAP item 1)"


def in_known_defect(inp: dict) -> bool:
    nu, x = inp["nu"], inp["x"]
    return (x > 2.0 and nu >= 10.0) or 25.0 <= x <= 40.0


HALTON_BASES = (2, 3, 5, 7, 11, 13)
HALTON_CHUNK = 256


def halton(first: int, n: int, dims: int) -> np.ndarray:
    """Points first .. first+n-1 of the Halton sequence in the unit cube."""
    out = np.zeros((n, dims))
    for d, base in enumerate(HALTON_BASES[:dims]):
        i = np.arange(first, first + n)
        f = 1.0
        while i.any():
            f /= base
            out[:, d] += f * (i % base)
            i //= base
    return out


def unit_points(rng: np.random.Generator, dims: int):
    """Endless shifted Halton points: each uniform, every prefix even."""
    shift = rng.random(dims)
    for first in itertools.count(1, HALTON_CHUNK):
        yield from (halton(first, HALTON_CHUNK, dims) + shift) % 1.0


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + float(u) * (math.log(hi) - math.log(lo)))


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def delta_rule(errors: list[float]) -> bool:
    """The delta-test pass rule: errors fall, with at most one small backstep."""
    pairs = zip(errors, errors[1:])
    backsteps = [later / earlier - 1.0 for earlier, later in pairs if later > earlier]
    return len(backsteps) <= 1 and all(b < DELTA_SLACK for b in backsteps)


def ratio_rule(xis: list[float], envelopes: list[float]) -> bool:
    """The asym-check pass rule: each envelope ratio within the band of (step)^2."""
    lo, hi = RATIO_BAND
    for i in range(1, len(xis)):
        expected = (xis[i - 1] / xis[i]) ** 2
        if not lo <= envelopes[i - 1] / envelopes[i] / expected <= hi:
            return False
    return True


def weak_limit_input(u: np.ndarray) -> dict:
    """One weak-limit case from six unit coordinates.

    phi is a Gaussian centred on nu, at most nu/5 wide so that its mass on
    nu' <= 0 stays below 1e-6.  The smeared error at cutoff xi falls
    roughly like erfc(w a / sqrt 2), a = ln(2/xi), down to a floor of 1e-7
    to 1e-4 (relative) that the smearing does not get below; its quad in
    ortho_verify._smeared_kernel works to absolute tolerances, the likely
    cause.  The second cutoff, four to six decades below the first,
    usually sits on that floor.  The width is set against the first
    cutoff, w a0 <= 0.9,
    so the first error stays above ~0.05 and the delta-test rule (errors
    must fall) compares a resolved error with the floor; at w a0 ~ 1.3 the
    first error can already sit at the floor, and the rule then failed
    about once in 4000 ops.  Compact bumps are left out: their smeared
    error decays like exp(-sqrt(2 a w)) and oscillates in a, so the rule
    fails on a few percent of draws by the mathematics.  nu stays below
    2.5, where the target pi^2/(2 nu sinh pi nu) exceeds 1e-3: near nu = 4
    it is ~1e-5 and the floor reaches the first error.
    """
    nu = log_uniform(u[0], 0.5, 2.5)
    xi0 = log_uniform(u[2], 0.02, 0.1)
    width = min((0.3 + 0.6 * u[1]) / math.log(2.0 / xi0), nu / 5.0)
    axi = log_uniform(u[5], 2e-3, 2e-2)
    return {
        "nu": nu,
        "phi": ("gaussian-bump", nu, width),
        "xi": [xi0, xi0 * 10.0 ** (-4.0 - 2.0 * u[3])],
        "nu2": nu + 0.05 + 0.45 * u[4],
        "axi": [axi, axi / 2.0, axi / 4.0],
    }


class KPoints:
    """besselk_imag and besselk_dx at one (nu, x) per op, checked against mpmath."""

    name = "k_points"
    # A run cycles a pool of 2000 inputs.  The pool bounds the mpmath
    # references per run (about 5 ms each: ~10 s) and keeps lat_tail_ms at
    # p99.5, which has exactly 10 distinct inputs beyond it.  Every pool
    # input is run once before the timed window and checked, so `attempted`
    # and `failed` depend on the seed only, not on how many ops the window
    # reaches.  At the seed's speed a 20 s window makes about 10000 ops.
    pool_size = 2000

    def inputs(self, rng):
        pool = [
            {"nu": log_uniform(a, 0.1, 50.0), "x": log_uniform(b, 1e-3, 300.0)}
            for a, b in itertools.islice(unit_points(rng, 2), self.pool_size)
        ]
        return itertools.cycle(pool)

    def run(self, M, inp):
        try:
            k = M.besselk_imag(inp["nu"], inp["x"])
            d = M.besselk_dx(inp["nu"], inp["x"])
        except Exception as exc:  # any raise is a failed op, recorded, never fatal
            return {"error": _error_text(exc)}
        return {"k": k.value, "dk": d.value}

    def check(self, inp, out, ref):
        if "error" in out:
            return False
        nu, x = inp["nu"], inp["x"]
        k_ref, dk_ref = ref
        # local amplitude of the oscillation in ln x, so that zeros of K do
        # not turn roundoff into relative failures
        amp = math.sqrt(k_ref * k_ref + (x * dk_ref) ** 2 / (nu * nu + x * x))
        damp = amp * math.sqrt(nu * nu + x * x) / x
        return abs(out["k"] - k_ref) <= K_TOL * amp and abs(out["dk"] - dk_ref) <= K_TOL * damp

    def perturb(self, out):
        return [
            {**out, "k": -out["k"]},
            {**out, "dk": -out["dk"]},
            {**out, "k": out["k"] * (1.0 + 1e-6)},
            {**out, "dk": out["dk"] * (1.0 - 1e-6)},
            {"error": "RangeError: refused"},
        ]


class KernelPairs:
    """kernel_boundary and kernel_quadrature on one (nu, nu', xi) per op."""

    name = "kernel_pairs"
    pool_size = None

    def inputs(self, rng):
        for a, b, c in unit_points(rng, 3):
            nu = log_uniform(a, 0.2, 10.0)
            yield {"nu": nu, "nu2": nu * 2.0 ** (2.0 * b - 1.0), "xi": log_uniform(c, 1e-6, 2.0)}

    def run(self, M, inp):
        try:
            pair = M.PairSpec(inp["nu"], inp["nu2"], inp["xi"])
            b = M.kernel_boundary(pair)
            q = M.kernel_quadrature(pair)
        except Exception as exc:  # ConvergenceError included: a failed op
            return {"error": _error_text(exc)}
        return {"boundary": b.value, "quadrature": q.value}

    def check(self, inp, out, ref=None):
        if "error" in out:
            return False
        b, q = out["boundary"], out["quadrature"]
        return abs(b - q) <= PAIR_TOL + PAIR_TOL * abs(b)

    def perturb(self, out):
        b = out["boundary"]
        return [
            {**out, "quadrature": b * (1.0 + 1e-6) + 1e-6},
            {**out, "quadrature": -b - 1e-6},
            {"error": "ConvergenceError: quadrature error estimate exceeds requested tolerance"},
        ]


class WeakLimit:
    """One weak_limit_test plus one asymptotic_envelope halving triple per op."""

    name = "weak_limit"
    pool_size = None

    def inputs(self, rng):
        return map(weak_limit_input, unit_points(rng, 6))

    def run(self, M, inp):
        try:
            kind, center, width = inp["phi"]
            rep = M.weak_limit_test(inp["nu"], inp["xi"], M.TestFunctionSpec(kind, center, width))
            envs = [M.asymptotic_envelope(inp["nu"], inp["nu2"], x) for x in inp["axi"]]
        except Exception as exc:
            return {"error": _error_text(exc)}
        return {"errors": list(rep.errors), "envelopes": envs}

    def check(self, inp, out, ref=None):
        if "error" in out:
            return False
        return delta_rule(out["errors"]) and ratio_rule(inp["axi"], out["envelopes"])

    def perturb(self, out):
        e, env = out["errors"], out["envelopes"]
        return [
            {**out, "errors": [e[0], 2.0 * e[0]]},
            {**out, "envelopes": [env[0], env[0] / 2.0, env[0] / 8.0]},
            {**out, "envelopes": [env[0], env[0], env[0]]},
        ]


class CliCold:
    """One cold `python -m macdonald.cli <subcommand>` process per op."""

    name = "cli_cold"
    pool_size = None

    def inputs(self, rng):
        while True:
            yield from self._cycle(rng)

    @staticmethod
    def _cycle(rng):
        """One op per subcommand, with small seeded arguments."""
        def lu(lo, hi):
            return log_uniform(rng.random(), lo, hi)

        def num(v):
            return f"{v:.6g}"

        nu = lu(0.2, 4.0)
        wl = weak_limit_input(rng.random(6))
        axi = wl["axi"]
        return [
            ["eval", "--nu", f"{num(lu(0.1, 10))},{num(lu(0.1, 10))}",
             "--x", f"{num(lu(1e-3, 20))},{num(lu(1e-3, 20))}"],
            ["gamma", "--nu", ",".join(num(lu(0.1, 20)) for _ in range(3))],
            ["identity-check", "--nu", num(nu), "--nu2", num(nu * 2.0 ** (rng.random() - 0.5)),
             "--xi", num(lu(1e-4, 1.0))],
            ["ortho-scan", "--nu", num(nu), "--xi", num(lu(1e-4, 0.1)),
             "--nu2-min", num(nu / 2), "--nu2-max", num(1.5 * nu), "--n", "21"],
            ["delta-test", "--nu", num(wl["nu"]), "--xi", ",".join(num(x) for x in wl["xi"]),
             "--phi", f"gaussian:{num(wl['phi'][1])},{num(wl['phi'][2])}"],
            ["asym-check", "--nu", num(wl["nu"]), "--nu2", num(wl["nu2"]),
             "--xi", ",".join(num(x) for x in axi)],
        ]

    def check(self, inp, out, schema):
        import jsonschema  # here, not at the top: the worker never needs it

        if out.get("code") not in (0, 1) or "Traceback" in out.get("stderr", ""):
            return False
        try:
            doc = json.loads(out["stdout"])
            jsonschema.validate(doc, schema)
        except (ValueError, jsonschema.ValidationError):
            return False
        return doc["command"] == inp[0]

    def perturb(self, out):
        return [
            {**out, "code": 2},
            {**out, "stderr": "Traceback (most recent call last):\n"},
            {**out, "stdout": out["stdout"][:-3]},
            {**out, "stdout": out["stdout"].replace('"pass"', '"passed"')},
        ]


WORKLOADS = {w.name: w for w in (KPoints(), KernelPairs(), WeakLimit(), CliCold())}


def stream(workload, seed: int):
    """The endless input stream of a workload for one seed."""
    return workload.inputs(np.random.default_rng(seed % 2**64))  # any integer, negative ones too


def pool(workload, seed: int) -> list:
    """The distinct inputs a pooled workload cycles through for one seed."""
    return list(itertools.islice(stream(workload, seed), workload.pool_size))
