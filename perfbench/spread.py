#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median
and quartile spread (IQR / median), as the README's reference figures.

    python3 perfbench/spread.py --workload sea-axis --seeds 1-10 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=RUN.parent.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    print(f"{'metric':52s} {'median':>12s} {'IQR/median':>10s} {'min':>12s} {'max':>12s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        spread = (q3 - q1) / mid if mid else float("nan")
        print(f"{name:52s} {mid:12.6g} {spread:10.4f} {min(values):12.6g} {max(values):12.6g}"
              f" {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
