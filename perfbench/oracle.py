"""Extended-precision references for K_{i nu}(x) and dK_{i nu}(x)/dx.

Independent of the package: mpmath's besselk at 30 digits, with the
derivative from the recurrence K'_mu = -K_{mu-1} - (mu / x) K_mu.  The
references are computed before and outside every timed region, in a
child process, and cached per seed under .bench_out/ so that repeated
runs of one seed pay once.

    echo '[[1.0, 2.0]]' | python3 perfbench/oracle.py    # -> [[K, K']]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

DPS = 30
TIMEOUT_S = 150.0


def k_and_dk(nu: float, x: float) -> tuple[float, float]:
    """(K_{i nu}(x), K'_{i nu}(x)) rounded to binary64 from a 30-digit evaluation."""
    import mpmath

    with mpmath.workdps(DPS):
        mu = mpmath.mpc(0, nu)
        xm = mpmath.mpf(x)
        k = mpmath.besselk(mu, xm)
        dk = -mpmath.besselk(mu - 1, xm) - (mu / xm) * k
        return float(mpmath.re(k)), float(mpmath.re(dk))


def _compute(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Evaluate the points in one child process of this script and wait for it.

    One child, not several: on a 2-vCPU host two children split the work
    but finished later than one.
    """
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        out = json.loads(proc.communicate(json.dumps(points), timeout=TIMEOUT_S)[0])
    finally:
        proc.kill()
        proc.wait()
    return [tuple(r) for r in out]


def references(points: list[tuple[float, float]], cache_path: str) -> list[tuple[float, float]]:
    """References for all points, in order; read from and added to cache_path."""
    cached = {}
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            cached = {(nu, x): tuple(ref) for nu, x, *ref in json.load(fh)}
    todo = sorted({p for p in points if p not in cached})
    if todo:
        cached.update(zip(todo, _compute(todo)))
        tmp = cache_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump([[nu, x, *ref] for (nu, x), ref in cached.items()], fh)
        os.replace(tmp, cache_path)
    return [cached[p] for p in points]


if __name__ == "__main__":
    json.dump([k_and_dk(nu, x) for nu, x in json.load(sys.stdin)], sys.stdout)
