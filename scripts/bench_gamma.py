"""Cold start, memory and gamma-function call times of two checkouts, measured interleaved.

    python3 scripts/bench_gamma.py BEFORE AFTER [--rounds 15] > out.json

BEFORE and AFTER are checkout roots, each with src/macdonald.  Every
measurement alternates between the two, one fresh interpreter at a time,
so a drift in host speed touches both alike; the JSON holds the median and
the minimum over the rounds:

- cold wall time of `python -c pass`, `python -c "import numpy"` and
  `python -m macdonald.cli eval --nu 1 --x 1`;
- peak RSS of a process that has run `import macdonald.cli`, and the scipy
  modules that import loaded;
- microseconds per call (best of 7 repeats in one process) of the scalar
  1/Gamma(1 + i nu) by `reciprocal_gamma`, of the Gamma(1 + i nu) term of
  one scalar series pass, of the array Gamma(1 + i nu) term that the array
  K series takes at 50 orders, and of the continuous phase on the imaginary
  axis at 120 orders, the sizes a weak_limit op passes.  Each term is the
  phase `_arg_gamma_one_plus_imag`, float or array; a checkout that predates
  it is timed on the names it has instead: `_reciprocal_gamma_one_plus_imag`
  (float, and array where it lacks the phase) and `_arg_gamma_imag_continuous`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

COLD = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "macdonald eval --nu 1 --x 1": ["-m", "macdonald.cli", "eval", "--nu", "1", "--x", "1"],
}

IMPORT_PROBE = """
import json, resource, sys
import macdonald.cli
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

CALLS_PROBE = """
import timeit
import numpy as np
from macdonald import gamma_core as g

rng = np.random.default_rng(0)
scalar = [float(v) for v in rng.uniform(0.05, 50.0, 200)]
nu50 = rng.uniform(0.05, 5.0, 50)
nu120 = rng.uniform(0.05, 5.0, 120)

def per_call(fn, number, calls=1):
    return min(timeit.repeat(fn, number=number, repeat=7)) / number / calls * 1e6

old = hasattr(g, "_reciprocal_gamma_one_plus_imag")  # a checkout before the one phase
scalar_term = g._reciprocal_gamma_one_plus_imag if old else g._arg_gamma_one_plus_imag
array_term = getattr(g, "_arg_gamma_one_plus_imag", None) or g._reciprocal_gamma_one_plus_imag
continuous = g._arg_gamma_imag_continuous if old else g._arg_gamma_one_plus_imag

print(per_call(lambda: [g.reciprocal_gamma(complex(1.0, v)) for v in scalar], 20, len(scalar)))
print(per_call(lambda: [scalar_term(v) for v in scalar], 20, len(scalar)))
print(per_call(lambda: array_term(nu50), 500))
print(per_call(lambda: continuous(nu120), 500))
"""

CALL_NAMES = (
    "reciprocal_gamma(1 + i nu), scalar",
    "scalar series Gamma(1 + i nu) term, float",
    "array Gamma(1 + i nu) term of the K series, 50 orders",
    "continuous phase on the imaginary axis, 120 orders",
)


def run(root: str, args: list[str]) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=root)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        sys.exit(f"{args} failed in {root}:\n{proc.stderr}")
    return elapsed, proc.stdout


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args()
    roots = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    cold = {side: {name: [] for name in COLD} for side in roots}
    rss = {side: [] for side in roots}
    calls = {side: {name: [] for name in CALL_NAMES} for side in roots}
    scipy_loaded = {}
    for _ in range(args.rounds):
        for side, root in roots.items():
            for name, argv in COLD.items():
                cold[side][name].append(run(root, argv)[0])
            out = run(root, ["-c", IMPORT_PROBE])[1].splitlines()
            rss[side].append(float(out[0]))
            scipy_loaded[side] = json.loads(out[1])
    for _ in range(max(3, args.rounds // 3)):
        for side, root in roots.items():
            for name, value in zip(CALL_NAMES, run(root, ["-c", CALLS_PROBE])[1].split()):
                calls[side][name].append(float(value))
    report = {
        "host": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "rounds": args.rounds,
    }
    for side in roots:
        report[side] = {
            "cold_s": {name: summary(v) for name, v in cold[side].items()},
            "rss_after_import_cli_mb": summary(rss[side]),
            "scipy_modules_after_import_cli": scipy_loaded[side],
            "us_per_call": {name: summary(v) for name, v in calls[side].items()},
        }
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
