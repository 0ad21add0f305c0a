"""Host-speed calibration: every reported time is scaled to one reference speed.

On a shared host the CPU time a fixed piece of Python code takes drifts by
tens of percent over seconds to minutes, for every process alike.  The
measured process therefore times a fixed pure-Python loop (`loop`) every
CAL_EVERY_S, between ops, and each op's latency is scaled by
CAL_REF_S / (the loop's time around that op): the op's time on a host where
the loop takes CAL_REF_S.  A change to the program moves these times as it
moves the raw ones; a change of host speed during or between runs largely
cancels.  The loop imports nothing from the package, so no change to the
program can speed it up or slow it down.  Raw times are printed beside the
scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

CAL_REF_S = 3.0e-3  # the loop's time at the reference speed (near its time on the 2-vCPU host this was tuned on)
CAL_EVERY_S = 0.1  # a sample is due when this long has passed since the last
CAL_SPAN = 2  # each op uses the median of the 2 + 1 + 2 samples nearest to it

# Set-up time is mostly process start and imports, which followed the host's
# speed less closely than `loop` did (scaling by it over-corrected); it is
# scaled instead by the time a fresh interpreter takes to import these
# standard-library modules, timed just before and after each set-up.
SPAWN_MODULES = "decimal, json, email.message, http.client, unittest"
SPAWN_REF_S = 0.11  # their import time at the reference speed (near it on that host)


def loop() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


class Calibrator:
    """Samples of the loop's time, taken when due, between ops."""

    def __init__(self):
        self.t: list[float] = []  # end of each sample, perf_counter
        self.s: list[float] = []  # duration of each sample
        self.last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        loop()
        t1 = time.perf_counter()
        self.t.append(t1)
        self.s.append(t1 - t0)
        self.last = t1

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def arrays(self) -> dict:
        return {"cal_t": self.t, "cal_s": self.s}


def factors(cal_t, cal_s, op_mid_t) -> np.ndarray:
    """CAL_REF_S / local loop time, for each op by the time of its midpoint."""
    cal_t, cal_s = np.asarray(cal_t), np.asarray(cal_s)
    n = len(cal_s)
    local = np.array([np.median(cal_s[max(0, j - CAL_SPAN): j + CAL_SPAN + 1]) for j in range(n)])
    j = np.clip(np.searchsorted(cal_t, np.asarray(op_mid_t)), 0, n - 1)
    return CAL_REF_S / local[j]


def scaled_latencies(window: dict) -> np.ndarray:
    """Op latencies of a window scaled to the reference speed."""
    lat = np.asarray(window["latencies_s"])
    mid = np.asarray(window["op_end_t"]) - lat / 2.0
    return lat * factors(window["cal_t"], window["cal_s"], mid)
