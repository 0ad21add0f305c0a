"""Peak RSS of one checkout's workload ops at fixed op counts, every output kept.

    python3 scripts/rss_at_ops.py ROOT [--workload kernel_pairs] [--ops 30000] [--seed 7] > out.json

ROOT is a checkout root: its src/ is imported as `macdonald`, and the
workloads are read from its perfbench/workloads.py, which is not changed.
The ops run back to back as in perfbench/worker.py's closed loop, keeping
every latency, end time and output, so memory grows with the op count as
it does in a benchmark run.  A pooled workload (k_points) first runs its
pool once and keeps those outputs too, as the worker does.  There is no
time window: the peak RSS (ru_maxrss) is read after every 5000th op and
after the last, so two checkouts compare at equal op counts and a
change's own per-op memory shows apart from the growth that a faster
change gets from running more ops in the same window.  Prints one JSON
object: the peaks in MB by op count, the CPU count and the command.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib.util
import itertools
import json
import platform
import resource
import sys
import time

EVERY = 5000  # ops between two readings of the peak
WORKLOADS = ("k_points", "kernel_pairs", "weak_limit")  # cli_cold's memory is its children's


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("--workload", default="kernel_pairs", choices=WORKLOADS)
    ap.add_argument("--ops", type=int, default=30000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    spec = importlib.util.spec_from_file_location(
        "rss_workloads", os.path.join(root, "perfbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    import macdonald

    w = workloads.WORKLOADS[args.workload]
    pool_outputs = [w.run(macdonald, inp) for inp in workloads.pool(w, args.seed)] if w.pool_size else []
    latencies, ends, outputs = [], [], []
    peaks = {}
    for i, inp in enumerate(itertools.islice(workloads.stream(w, args.seed), args.ops), 1):
        t0 = time.perf_counter()
        out = w.run(macdonald, inp)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        ends.append(t1)
        outputs.append(out)
        if i % EVERY == 0 or i == args.ops:
            peaks[str(i)] = round(peak_mb(), 4)
    report = {
        "command": " ".join(["python3", "scripts/rss_at_ops.py", *sys.argv[1:]]),
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(outputs),
        "pool_ops": len(pool_outputs),
        "peak_rss_mb_at_ops": peaks,
        "macdonald_file": os.path.relpath(macdonald.__file__, root),
        "host": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
