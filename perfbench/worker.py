"""The measured process: one closed-loop caller running one workload.

Started by run.py with BLAS/OpenMP threads pinned to 1 and PYTHONPATH set
to the checkout's src/.  Runs the untraced window, and with --trace 1 then
installs the tracer and replays the same inputs in a traced window.  A
pooled workload (k_points) first runs every input of its pool once,
untimed: that pass is its warm-up and the one its failure counts come
from.  Writes raw outputs, latencies and peak RSS to --out; every check
happens in the parent, after this process has exited.

    python3 perfbench/worker.py --workload k_points --seed 1 --seconds 20 --trace 0 --out r.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP_S = 0.5  # unpooled: ops from another seed, unchecked, before the timed window
OP_TIMEOUT_S = 120.0


def closed_loop(run_op, inputs, seconds: float, on_op=None) -> dict:
    """Run ops back to back until `seconds` have passed; the last op completes.

    Between ops the host-speed loop is timed whenever a sample is due
    (speed.py), and once more after the last op; its time is not in any
    op's latency.
    """
    latencies, ends, outputs = [], [], []
    cal = speed.Calibrator()
    cal.sample()
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    t1 = t_begin
    for i, inp in enumerate(inputs):
        cal.maybe()
        if on_op is not None:
            on_op(i)
        t0 = time.perf_counter()
        out = run_op(inp)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        ends.append(t1)
        outputs.append(out)
        if t1 >= deadline:
            break
    cal.sample()
    return {"elapsed_s": t1 - t_begin, "latencies_s": latencies, "op_end_t": ends,
            "outputs": outputs, **cal.arrays()}


def cli_runner(spans_dir: str | None):
    """Op runner for cli_cold: one fresh interpreter per op."""
    counter = itertools.count()

    def run_op(argv):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "macdonald.cli", *argv]
        else:
            path = os.path.join(spans_dir, f"op{next(counter):06d}.npz")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), path, *argv]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return {"code": None, "stdout": "", "stderr": f"timeout after {exc.timeout} s"}
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    return run_op


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    w = workloads.WORKLOADS[args.workload]

    import macdonald

    src = os.path.abspath("src")
    if not os.path.abspath(macdonald.__file__).startswith(src + os.sep):
        print(f"macdonald imported from {macdonald.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = {}
    if args.workload == "cli_cold":
        untraced = closed_loop(cli_runner(None), workloads.stream(w, args.seed), args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        def run_op(inp):
            return w.run(macdonald, inp)

        if w.pool_size:
            result["pool_outputs"] = [run_op(inp) for inp in workloads.pool(w, args.seed)]
        else:
            closed_loop(run_op, workloads.stream(w, args.seed + 1), WARMUP_S)
        untraced = closed_loop(run_op, workloads.stream(w, args.seed), args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["untraced"] = untraced

    if args.trace:
        spans_path = os.path.splitext(args.out)[0] + "-spans.npz"
        if args.workload == "cli_cold":
            spans_dir = os.path.splitext(args.out)[0] + "-cli-spans"
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            inputs = workloads.stream(w, args.seed)
            traced = closed_loop(cli_runner(spans_dir), inputs, args.seconds)
            files = sorted(os.listdir(spans_dir))
            parts = [tracing.load(os.path.join(spans_dir, f)) for f in files]
            spans = tracing.merge(parts)
        else:
            t = tracing.Tracer()
            t.install(macdonald)

            def on_op(i):
                t.op_id = i

            traced = closed_loop(run_op, workloads.stream(w, args.seed), args.seconds, on_op)
            spans = t.arrays()
        tracing.save(spans_path, spans)
        result["traced"] = traced
        result["spans"] = spans_path

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
