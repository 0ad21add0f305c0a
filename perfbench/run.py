"""Benchmark of the macdonald package: one workload, one seed, one run.

    python3 perfbench/run.py --workload k_points --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/.  --trace 0 measures the end-to-end metrics; --trace 1 runs the same
inputs untraced and then traced and reports the per-layer metrics and the
tracing overhead.  Every op's output is checked.  Human-readable lines go
first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Workloads, metrics and the
layer -> metric -> workload map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
REQUIRED = ("BENCHMARK.json", "src/macdonald/__init__.py", "docs/report_schema.json")
SETUP_REPEATS = 3  # fresh interpreters per run; the median is reported
TAIL_LADDER = (90.0, 99.0, 99.5, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
WORKER_TIMEOUT_S = 150.0
ESTIMATE_SAMPLE = 200  # K values checked for bessel_im.within_estimate_frac
LAYER_MODULES = ("gamma_core", "bessel_im", "ortho_verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    paths = (os.path.abspath("src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def import_target(workload: str) -> str:
    return "macdonald.cli" if workload == "cli_cold" else "macdonald"


def fresh_import_s(module: str, env: dict) -> float:
    """Wall time from starting an interpreter until `import module` returns.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    and the parent's reading before the spawn share one time base.
    """
    code = f"import {module}\nimport time\nprint(repr(time.monotonic()))"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def setup_s(workload: str, env: dict) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: scaled to the reference speed, and raw.

    Each is scaled by the mean time of the spawn calibration (speed.py)
    just before and just after it.
    """
    module = import_target(workload)
    fresh_import_s(module, env)  # warms the page cache and __pycache__
    fresh_import_s(speed.SPAWN_MODULES, env)
    cal = [fresh_import_s(speed.SPAWN_MODULES, env)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(fresh_import_s(module, env))
        cal.append(fresh_import_s(speed.SPAWN_MODULES, env))
        scaled.append(raw[-1] * speed.SPAWN_REF_S / ((cal[-2] + cal[-1]) / 2.0))
    return statistics.median(scaled), statistics.median(raw)


def import_times_s(env: dict) -> dict:
    """Cumulative import time per layer module from `python -X importtime`."""
    samples = {m: [] for m in LAYER_MODULES}
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import macdonald.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("macdonald."):
                mod = parts[2].removeprefix("macdonald.")
                if mod in samples:
                    samples[mod].append(int(parts[1]) * 1e-6)
    # the first pass only warms the caches
    return {f"import.{m}_s": statistics.median(v[1:]) for m, v in samples.items()}


def percentile(sorted_values: list[float], p: float) -> float:
    return float(np.percentile(sorted_values, p))


def tail(latencies: list[float], n_distinct: int) -> tuple[str, float]:
    """Highest of p90/p99/p99.5/p99.9/p99.99 with at least 10 distinct inputs beyond it.

    A pooled workload repeats its inputs, so the count that matters is of
    distinct inputs, not of ops.  Below 100 the answer is p50, which has
    10 beyond it from 20 inputs on; below 20 no percentile has, and p50 is
    still reported rather than a maximum that flips in and out with the
    op count.
    """
    s = sorted(latencies)
    chosen = [p for p in TAIL_LADDER if n_distinct * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND]
    p = chosen[-1] if chosen else 50.0
    return f"p{p:g}", percentile(s, p)


def environment(args) -> dict:
    import mpmath
    import scipy

    sha = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk("src")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                sha.update(path.encode())
                with open(path, "rb") as fh:
                    sha.update(fh.read())
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "src_sha256": sha.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_worker(args, env: dict) -> dict:
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
    ]
    subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S, check=True)
    with open(out) as fh:
        return json.load(fh)


class Checker:
    """Checks outputs against the workload's rule; k_points against mpmath."""

    def __init__(self, w, seed: int):
        self.w, self.seed = w, seed
        self.inputs = []
        self.refs = None
        self.context = None
        if w.name == "cli_cold":
            with open("docs/report_schema.json") as fh:
                self.context = json.load(fh)

    def prepare(self, n_ops: int) -> None:
        """Generate the inputs the worker ran and, for k_points, their references."""
        self.inputs = list(itertools.islice(workloads.stream(self.w, self.seed), n_ops))
        if self.w.pool_size:
            points = [(p["nu"], p["x"]) for p in self.inputs[: self.w.pool_size]]
            cache = os.path.join(OUT_DIR, f"oracle-{self.w.name}-seed{self.seed}.json")
            self.refs = oracle.references(points, cache)

    def ok(self, i: int, out: dict) -> bool:
        ref = self.refs[i % len(self.refs)] if self.refs is not None else self.context
        return self.w.check(self.inputs[i], out, ref)

    def self_check(self, outputs: list[dict]) -> tuple[int, int]:
        """Perturbed copies of the first passing output must all be rejected."""
        for i, out in enumerate(outputs):
            if self.ok(i, out):
                bad = self.w.perturb(out)
                return sum(not self.ok(i, b) for b in bad), len(bad)
        return 0, 1


def check_outputs(checker: Checker, outputs: list[dict], pool_failed: set | None = None) -> dict:
    """Failed ops, and those of them no known defect explains.

    With pool_failed (the pool indices that failed in the checked pass), a
    timed op of a pooled workload is explained only where its input failed
    there too, so an output that changes between passes clears `correct`.
    """
    checker.prepare(len(outputs))
    failed = [i for i, out in enumerate(outputs) if not checker.ok(i, out)]
    has_region = checker.w.name == "k_points"  # the only workload with a known defect

    def explained(i):
        if pool_failed is not None and i % checker.w.pool_size not in pool_failed:
            return False
        return has_region and workloads.in_known_defect(checker.inputs[i])

    unexplained = [i for i in failed if not explained(i)]
    return {"attempted": len(outputs), "failed": failed, "unexplained": unexplained}


def end_to_end(w, window: dict, counted: dict, setup: tuple, rss: float) -> tuple[dict, list[str]]:
    raw = np.asarray(window["latencies_s"])
    lat = speed.scaled_latencies(window)
    n = len(lat)
    n_distinct = min(n, w.pool_size or n)
    tail_label, tail_value = tail(lat, n_distinct)
    n_attempted, n_failed = counted["attempted"], len(counted["failed"])
    values = {
        "ops_per_s": n / lat.sum(),
        "lat_p50_ms": percentile(sorted(lat), 50.0) * 1e3,
        "lat_tail_ms": tail_value * 1e3,
        "pass_frac": 1.0 - n_failed / n_attempted,
        "setup_s": setup[0],
        "peak_rss_mb": rss,
    }
    fails = f"fail_frac {n_failed / n_attempted:.6g} = {n_failed} failed / {n_attempted} attempted"
    if w.name == "k_points":
        fails += " in the checked pass over the pool"
        in_region = n_failed - len(counted["unexplained"])
        fails += f"; {in_region} in the known-defect region {workloads.KNOWN_DEFECT}"
    notes = {
        "ops_per_s": f"raw: {n / raw.sum():.6g} per s of op time, {n / window['elapsed_s']:.6g} per s of wall time",
        "lat_p50_ms": f"raw: {percentile(sorted(raw), 50.0) * 1e3:.6g}",
        "lat_tail_ms": f"{tail_label}, {n} ops, {n_distinct} distinct inputs; raw: {tail(raw, n_distinct)[1] * 1e3:.6g}",
        "pass_frac": fails,
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters until `import {import_target(w.name)}`; raw: {setup[1]:.6g}",
        "peak_rss_mb": "largest cold CLI process" if w.name == "cli_cold" else "worker process",
    }
    metrics_units = units("end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in metrics_units.items()}
    lines = [f"{k:<14} {values[k]:>14.6g} {u:<5} {notes.get(k, '')}" for k, u in metrics_units.items()]
    speeds = speed.factors(window["cal_t"], window["cal_s"], window["cal_t"])
    lines.append(
        f"times above are at the reference speed (speed.py); host speed over the window: "
        f"median {np.median(speeds):.4g}, range {speeds.min():.4g}..{speeds.max():.4g} of it, "
        f"{len(speeds)} samples"
    )
    return metrics, lines


def within_estimate_frac(spans: dict, seed: int, workload: str) -> tuple[float, int]:
    """Share of sampled K and K' values whose mpmath error is within their own estimate."""
    n = len(spans["k_span"])
    if n == 0:
        return 0.0, 0
    names = [str(x) for x in spans["names"]]
    rng = np.random.default_rng(seed % 2**64)
    pick = np.sort(rng.choice(n, size=min(n, ESTIMATE_SAMPLE), replace=False))
    args = spans["k_args"][pick]
    dx_id = names.index("bessel_im.besselk_dx") if "bessel_im.besselk_dx" in names else -1
    is_dx = spans["name"][spans["k_span"][pick]] == dx_id
    points = [(float(nu), float(x)) for nu, x in args[:, :2]]
    cache = os.path.join(OUT_DIR, f"oracle-{workload}-seed{seed}.json")
    refs = oracle.references(points, cache)
    within = sum(
        abs(value - ref[1 if dx else 0]) <= est
        for (_nu, _x, value, est), ref, dx in zip(args, refs, is_dx)
    )
    return within / len(pick), len(pick)


def units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def per_layer(args, result: dict, imports: dict) -> tuple[dict, list[str]]:
    spans = tracing.load(result["spans"])
    traced, untraced = result["traced"], result["untraced"]
    n_traced = len(traced["latencies_s"])
    values = tracing.summarize(spans, n_traced)
    frac, sampled = within_estimate_frac(spans, args.seed, args.workload)
    values["bessel_im.within_estimate_frac"] = frac
    values.update(imports)
    # both windows start at the same input, so compare on the ops both ran
    common = min(len(untraced["latencies_s"]), n_traced)
    ops_untraced = common / speed.scaled_latencies(untraced)[:common].sum()
    ops_traced = common / speed.scaled_latencies(traced)[:common].sum()
    values["trace.overhead_frac"] = 1.0 - ops_traced / ops_untraced
    metrics = {k: {"value": values[k], "unit": u} for k, u in units("per_layer").items()}
    lines = [f"{k:<34} {values[k]:>14.6g} {u}" for k, u in units("per_layer").items()]
    lines.append(
        f"tracing: {len(spans['start'])} spans over {n_traced} ops; on the first {common} ops, "
        f"ops_per_s {ops_untraced:.6g} untraced and {ops_traced:.6g} traced; "
        f"within_estimate_frac from {sampled} sampled K/K' values"
    )
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"not a macdonald source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    w = workloads.WORKLOADS[args.workload]
    env = child_env()

    setup = setup_s(args.workload, env) if not args.trace else None
    imports = import_times_s(env) if args.trace else None
    result = run_worker(args, env)

    checker = Checker(w, args.seed)
    checked, pool_failed = {}, None
    if w.pool_size:
        checked["pool"] = check_outputs(checker, result["pool_outputs"])
        pool_failed = set(checked["pool"]["failed"])
    checked["untraced"] = check_outputs(checker, result["untraced"]["outputs"], pool_failed)
    rejected, perturbed = checker.self_check(result["untraced"]["outputs"])
    if args.trace:
        checked["traced"] = check_outputs(checker, result["traced"]["outputs"], pool_failed)
    run_env = environment(args)
    run_env.update({f"ops_{name}": c["attempted"] for name, c in checked.items()})
    print(f"environment {json.dumps(run_env, sort_keys=True)}")
    print(f"self-check: {rejected}/{perturbed} perturbed outputs rejected")
    for name, c in checked.items():
        print(
            f"{name}: {c['attempted']} ops, {len(c['failed'])} failed, "
            f"{len(c['unexplained'])} unexplained (outside the known-defect region, or passed in the pool pass)"
        )

    # a pooled workload counts each distinct input once, from its checked pass
    counted = checked.get("pool", checked["untraced"])
    if args.trace:
        metrics, lines = per_layer(args, result, imports)
    else:
        metrics, lines = end_to_end(w, result["untraced"], counted, setup, result["peak_rss_mb"])
    print("\n".join(lines))
    correct = rejected == perturbed and all(not c["unexplained"] for c in checked.values())
    summary = {
        "correct": correct,
        "attempted": counted["attempted"],
        "failed": len(counted["failed"]),
        "metrics": metrics,
    }
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"environment": run_env, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
