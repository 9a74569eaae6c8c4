#!/usr/bin/env python3
"""The reference job: a fixed mix of small numpy operations and Python
arithmetic that is not part of the program, like the learner's per-sample
work.  The benchmark times it next to the learner to scale its timings
to one machine speed (see run.py); run on its own, this script times it
in windows of a few seconds to show how much the machine's speed moves.

    OMP_NUM_THREADS=1 python3 perfbench/machine_speed.py --seconds 60 --window 5

Each line is one window: the median and the minimum milliseconds of one
call of the job.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

import numpy as np

_A = np.random.default_rng(0).normal(size=(6, 6))


def job() -> float:
    s = 0.0
    for i in range(60):
        x = _A @ _A[i % 6]
        s += float(np.sqrt(x @ x))
        s += sum(j * 0.5 for j in range(20))
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--window", type=float, default=5.0)
    args = ap.parse_args(argv)
    end = perf_counter() + args.seconds
    while perf_counter() < end:
        times = []
        w_end = perf_counter() + args.window
        while perf_counter() < w_end:
            t0 = perf_counter()
            job()
            times.append((perf_counter() - t0) * 1e3)
        print(f"median {statistics.median(times):.4f} ms  min {min(times):.4f} ms  "
              f"calls {len(times)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
