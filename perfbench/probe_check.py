"""Checks that the speed probe's samples do not depend on the program it times.

Run from the repository root:

    python3 perfbench/probe_check.py --rounds 40

Each round runs three programs in turn: a ``solve-partial`` request at grid
1e4, six passes over a 128 MB array (which evict L2 and L3), and a Python
loop that churns small objects.  Before each program the kernel runs alone
for 0.4 s.  The probe samples throughout, as in the benchmark, and also
times the untimed warm-up call of each sample.  Per program it prints the
median over rounds of (median sample inside the program) / (median sample
in the gap before it), for that single cold call and for the probe's sample,
with quartiles, the share of the program's time the probe took, and the
spread of log time before and after dividing by the speed factor.  A sample
that does not depend on the program gives a ratio near 1.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

import numpy as np

import probe

GAP_S = 0.4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from hftmfg import cli, presets
    from workloads import _write_config

    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    big = np.ones(16 * 2**20)

    def solve_partial():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["solve-partial", "--config", config, "--out",
                      os.path.join(workdir, "out")])

    def array_passes():
        for _ in range(6):
            x = big * 1.5
            x += 1.0

    def python_loop():
        d = {}
        for i in range(1_500_000):
            d[i % 977] = [i, str(i)]

    programs = {"solve-partial": solve_partial, "array-passes": array_passes,
                "python-loop": python_loop}
    times, cold, warm, cost = [], [], [], []

    def tick(signum, frame):
        t0 = time.perf_counter()
        probe.kernel()                      # the call that ``probe.sample`` leaves untimed
        t1 = time.perf_counter()
        seconds = []
        for _ in range(probe.CALLS):
            t = time.perf_counter()
            probe.kernel()
            seconds.append(time.perf_counter() - t)
        times.append(t0)
        cold.append(t1 - t0)
        warm.append(statistics.median(seconds))
        cost.append(time.perf_counter() - t0)

    runs = []
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, probe.INTERVAL_S, probe.INTERVAL_S)
    try:
        config = _write_config(presets.partial_two_type(grid=10000),
                               os.path.join(workdir, "partial.json"))
        for _ in range(args.rounds):
            for name, program in programs.items():
                g0 = time.perf_counter()
                while time.perf_counter() - g0 < GAP_S:
                    probe.kernel()
                t0 = time.perf_counter()
                program()
                runs.append((name, g0, t0, time.perf_counter()))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)

    def window(values, a, b):
        return values[bisect.bisect_left(times, a):bisect.bisect_right(times, b)]

    def quartiles(values):
        return " ".join(f"{q:.3f}" for q in statistics.quantiles(values, n=4))

    for name in programs:
        stats = {"cold": [], "sample": [], "share": [], "raw": [], "scaled": []}
        for run_name, g0, t0, t1 in runs:
            if run_name != name:
                continue
            for key, values in (("cold", cold), ("sample", warm)):
                stats[key].append(statistics.median(window(values, t0, t1))
                                  / statistics.median(window(values, g0, t0)))
            stats["share"].append(sum(window(cost, t0, t1)) / (t1 - t0))
            stats["raw"].append(math.log(t1 - t0))
            stats["scaled"].append(math.log((t1 - t0) / statistics.fmean(window(warm, t0, t1))))
        print(f"{name}: in/gap ratio, one cold call {quartiles(stats['cold'])}, "
              f"sample {quartiles(stats['sample'])} (quartiles); "
              f"probe share {statistics.median(stats['share']):.3f}; "
              f"sd of log time {statistics.pstdev(stats['raw']):.3f} raw, "
              f"{statistics.pstdev(stats['scaled']):.3f} scaled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
