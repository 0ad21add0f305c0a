"""Per-op time of two checkouts on k_points, weak_limit and kernel_pairs inputs, interleaved.

    python3 scripts/bench_arraycore.py BEFORE AFTER [--ops 400] [--seed 901] > out.json

BEFORE and AFTER are checkout roots, each with src/macdonald.  Both
packages are loaded side by side in this one interpreter (as
`macdonald_before` and `macdonald_after`) and run the ops of
perfbench/workloads.py on the same seeded inputs.  Every input is run by
both sides back to back, and the side that goes first alternates from op
to op, so the two times of a pair are milliseconds apart and a drift in
host speed (up to 40 % here, for seconds at a time) touches both alike.
Inputs differ in cost by decades, so the result is the after/before ratio
of each pair: the JSON holds, per workload, its median and quartiles, the
pairs the after side won, the summed milliseconds of each side, whether
the two sides returned identical outputs, and the largest absolute
difference between their output numbers (inf where the outputs differ in
anything but numbers, such as an error on one side).  It also holds the
microseconds per call of the scalar and the length-1 array K at
(nu, x) = (1, 0.5) on the AFTER side, of the public diagonal_limit(1, 1e-4)
and asymptotic_envelope(1, 1.5, 1e-3) on both sides, and the CPU count.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import importlib.util
import itertools
import json
import math
import platform
import statistics
import sys
import time
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("k_points", "weak_limit", "kernel_pairs")


def load_module(name: str, path: str, package_dir: str | None = None):
    """Import the file at `path` as module `name` (as a package when package_dir is given)."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[package_dir] if package_dir else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_package(root: str, name: str):
    package_dir = os.path.join(root, "src", "macdonald")
    return load_module(name, os.path.join(package_dir, "__init__.py"), package_dir)


def max_abs_diff(a, b) -> float:
    """Largest |a - b| over the numbers of two outputs of the same shape; inf where they differ otherwise."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((max_abs_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if a == b:
        return 0.0
    if isinstance(a, float) and isinstance(b, float):
        d = abs(a - b)
        return d if d == d else math.inf  # a nan on either side
    return math.inf


def per_call_us(fn, number: int = 2000) -> float:
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6


def length_one_timing(M) -> dict:
    """Microseconds per call at (nu, x) = (1, 0.5): the scalar core and the array forms at length 1."""
    b = importlib.import_module(M.__name__ + ".bessel_im")
    x1 = np.array([0.5])
    return {
        "_i_series(1, 0.5)": per_call_us(lambda: b._i_series(1.0, 0.5)),
        "besselk_imag(1, 0.5)": per_call_us(lambda: M.besselk_imag(1.0, 0.5)),
        "_k_values([1], [0.5])": per_call_us(lambda: b._k_values([1.0], x1)),
        "_k_dk_series(1, [0.5])": per_call_us(lambda: b._k_dk_series(1.0, x1)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--ops", type=int, default=400, help="input pairs per workload")
    ap.add_argument("--seed", type=int, default=901)
    args = ap.parse_args()
    workloads = load_module("bench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    sides = {
        "before": load_package(os.path.abspath(args.before), "macdonald_before"),
        "after": load_package(os.path.abspath(args.after), "macdonald_after"),
    }
    report = {
        "host": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "command": " ".join(["python3", "scripts/bench_arraycore.py", *sys.argv[1:]]),
        "ops": args.ops,
        "workloads": {},
    }
    for name in WORKLOADS:
        w = workloads.WORKLOADS[name]
        ms = {side: [] for side in sides}
        identical, diff = True, 0.0
        for i, inp in enumerate(itertools.islice(workloads.stream(w, args.seed), args.ops)):
            outputs = {}
            for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
                t0 = time.perf_counter()
                outputs[side] = w.run(sides[side], inp)
                ms[side].append((time.perf_counter() - t0) * 1e3)
            identical = identical and outputs["before"] == outputs["after"]
            diff = max(diff, max_abs_diff(outputs["before"], outputs["after"]))
        ratios = [a / b for a, b in zip(ms["after"], ms["before"])]
        report["workloads"][name] = {
            "after_over_before_median": statistics.median(ratios),
            "after_over_before_quartiles": statistics.quantiles(ratios, n=4),
            "pairs_after_faster": sum(r < 1.0 for r in ratios),
            "total_ms": {side: sum(v) for side, v in ms.items()},
            "outputs_identical": identical,
            "max_abs_output_diff": diff,
        }
    report["us_per_call_after"] = length_one_timing(sides["after"])
    for label, call in (
        ("diagonal_limit(1, 1e-4)", lambda M: M.diagonal_limit(1.0, 1e-4)),
        ("asymptotic_envelope(1, 1.5, 1e-3)", lambda M: M.asymptotic_envelope(1.0, 1.5, 1e-3)),
    ):
        report[f"{label}_us_per_call"] = {
            side: per_call_us(lambda: call(M), number=500) for side, M in sides.items()
        }
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
