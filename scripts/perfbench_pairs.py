"""Alternating perfbench pairs of two checkouts, and their summary per end-to-end metric.

    python3 scripts/perfbench_pairs.py BEFORE AFTER --workload kernel_pairs --seeds 2901 2902 ... > out.json

BEFORE and AFTER are checkout roots.  For each seed, perfbench/run.py runs
once in each root (--seconds 20 --trace 0 by default), one run at a time;
the side that goes first alternates from seed to seed, starting with
BEFORE.  The JSON holds every run (exit code, correct, attempted, failed
and each end-to-end metric) and, per metric, each side's median and
quartiles, the after/before ratio of the medians, the pairs the after side
won (ties count for neither) and the gap between the medians over the
before side's interquartile range, over the metrics that every run
reports.  The CPU count is recorded with them.  The JSON is written in
any case; the exit status is 1 if any run exited non-zero or did not
report `correct` true, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HIGHER_IS_BETTER = {"ops_per_s", "pass_frac"}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    verdict = json.loads(lines[-1]) if lines else {}
    return {
        "exit": run.returncode,
        "wall_s": round(time.time() - t0, 1),
        "correct": verdict.get("correct"),
        "attempted": verdict.get("attempted"),
        "failed": verdict.get("failed"),
        "metrics": {k: v["value"] for k, v in verdict.get("metrics", {}).items()},
    }


def summary(pairs: list[dict]) -> dict:
    out = {}
    runs = [pair[side] for pair in pairs for side in ("before", "after")]
    for name in (n for n in runs[0]["metrics"] if all(n in run["metrics"] for run in runs)):
        b = [p["before"]["metrics"][name] for p in pairs]
        a = [p["after"]["metrics"][name] for p in pairs]
        sign = 1.0 if name in HIGHER_IS_BETTER else -1.0
        q = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
        spread = q[2] - q[0]
        gap = statistics.median(a) - statistics.median(b)
        out[name] = {
            "before_median": statistics.median(b),
            "after_median": statistics.median(a),
            "after_over_before": statistics.median(a) / statistics.median(b),
            "before_quartiles": [q[0], q[2]],
            "after_quartiles": statistics.quantiles(a, n=4)[::2] if len(a) > 1 else [a[0]] * 2,
            "pairs_after_better": sum(sign * (y - x) > 0.0 for x, y in zip(b, a)),
            "median_gap_over_before_interquartile": abs(gap) / spread if spread else None,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    roots = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ["before", "after"] if i % 2 == 0 else ["after", "before"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, args.seconds)
            print(f"seed {seed} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
        pairs.append(pair)
    report = {
        "command": " ".join(["python3", "scripts/perfbench_pairs.py", *sys.argv[1:]]),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "summary": summary(pairs),
        "pairs": pairs,
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    failed = [p[side] for p in pairs for side in ("before", "after")
              if p[side]["exit"] or p[side]["correct"] is not True]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
